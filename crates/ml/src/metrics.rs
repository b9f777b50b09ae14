//! Evaluation metrics.

/// Why a metric could not be computed.
///
/// Carried as data instead of a panic so harnesses that score *generated*
/// models (the differential fuzzer) can distinguish "the metric rejected
/// this input" from "two engines disagree on a valid input".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsError {
    /// The prediction and label streams have different lengths.
    LengthMismatch {
        /// Number of predictions supplied.
        predictions: usize,
        /// Number of ground-truth labels supplied.
        labels: usize,
    },
    /// Both streams are empty: accuracy is 0/0.
    Empty,
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsError::LengthMismatch {
                predictions,
                labels,
            } => write!(
                f,
                "length mismatch: {predictions} predictions scored against {labels} labels"
            ),
            MetricsError::Empty => write!(f, "accuracy of an empty prediction set is undefined"),
        }
    }
}

impl std::error::Error for MetricsError {}

/// Fraction of predictions equal to the ground truth.
///
/// Returns [`MetricsError::LengthMismatch`] when the streams disagree on
/// length and [`MetricsError::Empty`] when both are empty (0/0 would
/// otherwise surface as `NaN` and silently poison every downstream
/// comparison).
///
/// ```
/// use ml::metrics::accuracy;
/// let acc = accuracy([0usize, 1, 2].into_iter(), [0usize, 1, 1].into_iter()).unwrap();
/// assert!((acc - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn accuracy(
    predictions: impl Iterator<Item = usize>,
    truth: impl Iterator<Item = usize>,
) -> Result<f64, MetricsError> {
    let mut preds = predictions;
    let mut labels = truth;
    let mut correct = 0usize;
    let mut total = 0usize;
    loop {
        match (preds.next(), labels.next()) {
            (Some(p), Some(t)) => {
                correct += (p == t) as usize;
                total += 1;
            }
            (Some(_), None) => {
                return Err(MetricsError::LengthMismatch {
                    predictions: total + 1 + preds.count(),
                    labels: total,
                })
            }
            (None, Some(_)) => {
                return Err(MetricsError::LengthMismatch {
                    predictions: total,
                    labels: total + 1 + labels.count(),
                })
            }
            (None, None) => break,
        }
    }
    if total == 0 {
        return Err(MetricsError::Empty);
    }
    Ok(correct as f64 / total as f64)
}

/// Confusion matrix: `matrix[truth][pred]` counts.
pub fn confusion_matrix(
    predictions: impl Iterator<Item = usize>,
    truth: impl Iterator<Item = usize>,
    n_classes: usize,
) -> Vec<Vec<usize>> {
    let mut m = vec![vec![0usize; n_classes]; n_classes];
    for (p, t) in predictions.zip(truth) {
        m[t][p] += 1;
    }
    m
}

/// Per-class precision, recall and F1 derived from a confusion matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Class index.
    pub class: usize,
    /// True positives / predicted positives (1.0 when nothing predicted).
    pub precision: f64,
    /// True positives / actual positives (1.0 when class absent).
    pub recall: f64,
    /// Harmonic mean of precision and recall (0.0 when both are 0).
    pub f1: f64,
}

/// Computes per-class reports from a confusion matrix
/// (`matrix[truth][pred]`).
pub fn class_reports(matrix: &[Vec<usize>]) -> Vec<ClassReport> {
    let k = matrix.len();
    (0..k)
        .map(|c| {
            let tp = matrix[c][c];
            let predicted: usize = (0..k).map(|t| matrix[t][c]).sum();
            let actual: usize = matrix[c].iter().sum();
            let precision = if predicted == 0 {
                1.0
            } else {
                tp as f64 / predicted as f64
            };
            let recall = if actual == 0 {
                1.0
            } else {
                tp as f64 / actual as f64
            };
            let f1 = if precision + recall == 0.0 {
                0.0
            } else {
                2.0 * precision * recall / (precision + recall)
            };
            ClassReport {
                class: c,
                precision,
                recall,
                f1,
            }
        })
        .collect()
}

/// Unweighted mean of per-class F1 scores — robust to the class imbalance
/// of the medical datasets (arrhythmia is 54% "normal"; plain accuracy
/// over-credits majority-class classifiers).
pub fn macro_f1(matrix: &[Vec<usize>]) -> f64 {
    let reports = class_reports(matrix);
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(|r| r.f1).sum::<f64>() / reports.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_and_zero_accuracy() {
        assert_eq!(
            accuracy([1usize, 2].into_iter(), [1usize, 2].into_iter()).unwrap(),
            1.0
        );
        assert_eq!(
            accuracy([0usize, 0].into_iter(), [1usize, 2].into_iter()).unwrap(),
            0.0
        );
    }

    #[test]
    fn length_mismatch_is_an_error_in_both_directions() {
        assert_eq!(
            accuracy([0usize].into_iter(), [0usize, 1].into_iter()),
            Err(MetricsError::LengthMismatch {
                predictions: 1,
                labels: 2
            })
        );
        assert_eq!(
            accuracy([0usize, 1, 2].into_iter(), [0usize].into_iter()),
            Err(MetricsError::LengthMismatch {
                predictions: 3,
                labels: 1
            })
        );
    }

    #[test]
    fn empty_set_is_an_error_not_a_nan() {
        // 0/0 must surface as a typed error; a silent NaN would compare
        // false against every threshold and corrupt model selection.
        let r = accuracy(std::iter::empty(), std::iter::empty());
        assert_eq!(r, Err(MetricsError::Empty));
    }

    #[test]
    fn confusion_matrix_diagonal_for_perfect_predictions() {
        let m = confusion_matrix([0usize, 1, 1].into_iter(), [0usize, 1, 1].into_iter(), 2);
        assert_eq!(m, vec![vec![1, 0], vec![0, 2]]);
    }
}

#[cfg(test)]
mod class_metric_tests {
    use super::*;

    #[test]
    fn perfect_predictions_score_one_everywhere() {
        let m = confusion_matrix([0usize, 1, 2].into_iter(), [0usize, 1, 2].into_iter(), 3);
        for r in class_reports(&m) {
            assert_eq!(r.precision, 1.0);
            assert_eq!(r.recall, 1.0);
            assert_eq!(r.f1, 1.0);
        }
        assert_eq!(macro_f1(&m), 1.0);
    }

    #[test]
    fn majority_class_predictor_has_low_macro_f1_but_decent_accuracy() {
        // 9 of class 0, 1 of class 1, everything predicted 0.
        let truth = [0usize; 9].into_iter().chain([1usize]);
        let pred = [0usize; 10].into_iter();
        let m = confusion_matrix(pred.clone(), truth.clone(), 2);
        let acc = accuracy(pred, truth).unwrap();
        assert!(acc >= 0.9);
        assert!(macro_f1(&m) < 0.6, "macro f1 {}", macro_f1(&m));
    }

    #[test]
    fn absent_classes_do_not_poison_the_mean() {
        // Class 2 never occurs and is never predicted: precision and
        // recall default to 1.
        let m = confusion_matrix([0usize, 1].into_iter(), [0usize, 1].into_iter(), 3);
        let r = &class_reports(&m)[2];
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 1.0);
    }

    #[test]
    fn mixed_case_matches_hand_computation() {
        // truth:  0 0 1 1
        // pred:   0 1 1 1
        let m = confusion_matrix(
            [0usize, 1, 1, 1].into_iter(),
            [0usize, 0, 1, 1].into_iter(),
            2,
        );
        let r = class_reports(&m);
        assert!((r[0].precision - 1.0).abs() < 1e-12);
        assert!((r[0].recall - 0.5).abs() < 1e-12);
        assert!((r[1].precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((r[1].recall - 1.0).abs() < 1e-12);
    }
}
