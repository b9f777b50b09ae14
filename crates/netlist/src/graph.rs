//! The one validated netlist graph behind simulation, compilation,
//! timing, logic depth and fanout.
//!
//! [`Graph::new`] makes every structural check of [`Module::validate`]
//! while it fills a dense per-net driver table, so a module is validated
//! and indexed in one pass. [`Graph::order`] is the single topological
//! walk: the scalar simulator, the compiled tape, the critical-path and
//! logic-depth passes all evaluate items in this order, so a cycle is
//! reported the same way (and through the same net) by every one of
//! them. [`Graph::readers`] builds the per-net reader lists the fanout
//! repair needs.

use crate::error::SimError;
use crate::ir::{Module, NetId, Signal};

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Driver {
    /// Nothing: an allocated net no port, gate or ROM drives.
    Undriven,
    /// A module input bit.
    Input,
    /// The combinational gate at this index.
    Gate(usize),
    /// The flip-flop at this gate index (a sequential source).
    Dff(usize),
    /// The ROM macro at this index.
    Rom(usize),
}

/// One evaluation step of a combinational pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Item {
    /// A combinational gate, by index.
    Gate(usize),
    /// A ROM macro, by index.
    Rom(usize),
}

impl Item {
    /// The signals the item reads: gate pins or ROM address bits.
    pub(crate) fn inputs(self, module: &Module) -> &[Signal] {
        match self {
            Item::Gate(i) => &module.gates[i].inputs,
            Item::Rom(i) => &module.roms[i].addr,
        }
    }

    /// The nets the item drives: a gate's output or a ROM's data bits.
    pub(crate) fn outputs(self, module: &Module) -> &[NetId] {
        match self {
            Item::Gate(i) => std::slice::from_ref(&module.gates[i].output),
            Item::Rom(i) => &module.roms[i].data,
        }
    }
}

/// Where a net is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reader {
    /// `gates[i].inputs[pin]`.
    GatePin(usize, usize),
    /// `roms[i].addr[pin]`.
    RomAddr(usize, usize),
    /// `outputs[i].bits[pin]`.
    OutputBit(usize, usize),
}

/// Per-net reader lists in compressed form: the readers of net `n` are
/// `list[start[n]..start[n + 1]]`, gate pins first, then ROM address
/// pins, then output bits, each in module order.
#[derive(Debug)]
pub(crate) struct Readers {
    start: Vec<usize>,
    list: Vec<Reader>,
}

impl Readers {
    /// Every place net `net` is read.
    pub(crate) fn of(&self, net: NetId) -> &[Reader] {
        &self.list[self.start[net.index()]..self.start[net.index() + 1]]
    }
}

/// A validated module with its dense driver table.
#[derive(Debug)]
pub(crate) struct Graph<'m> {
    module: &'m Module,
    drivers: Vec<Driver>,
}

impl<'m> Graph<'m> {
    /// Validates `module` and indexes its drivers, reporting the first
    /// violation [`Module::validate`] describes as
    /// [`SimError::InvalidModule`].
    pub(crate) fn new(module: &'m Module) -> Result<Self, SimError> {
        let drivers = drivers(module).map_err(|reason| SimError::InvalidModule {
            module: module.name.clone(),
            reason,
        })?;
        Ok(Graph { module, drivers })
    }

    /// What drives `net`.
    pub(crate) fn driver(&self, net: NetId) -> Driver {
        self.drivers[net.index()]
    }

    /// Topological order of the combinational gates and ROM macros.
    ///
    /// An iterative depth-first walk (deep ripple chains would overflow
    /// recursion): roots are the combinational gates in index order, then
    /// the ROMs; dependencies are visited in input order; inputs,
    /// constants and flip-flop outputs are sources. The first back edge
    /// is reported as [`SimError::CombinationalCycle`] through the net it
    /// reads.
    pub(crate) fn order(&self) -> Result<Vec<Item>, SimError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let module = self.module;
        let n_gates = module.gates.len();
        let mark_slot = |item: Item| match item {
            Item::Gate(i) => i,
            Item::Rom(i) => n_gates + i,
        };
        let mut marks = vec![Mark::White; n_gates + module.roms.len()];
        let mut order = Vec::with_capacity(marks.len());
        let mut stack: Vec<(Item, usize)> = Vec::new();
        let roots = (0..n_gates)
            .filter(|&i| !module.gates[i].kind.is_sequential())
            .map(Item::Gate)
            .chain((0..module.roms.len()).map(Item::Rom));
        for root in roots {
            if marks[mark_slot(root)] != Mark::White {
                continue;
            }
            marks[mark_slot(root)] = Mark::Grey;
            stack.push((root, 0));
            while let Some(&mut (item, ref mut next)) = stack.last_mut() {
                let Some(&sig) = item.inputs(module).get(*next) else {
                    marks[mark_slot(item)] = Mark::Black;
                    order.push(item);
                    stack.pop();
                    continue;
                };
                *next += 1;
                let Some(n) = sig.net() else { continue };
                let dep = match self.driver(n) {
                    Driver::Gate(g) => Item::Gate(g),
                    Driver::Rom(r) => Item::Rom(r),
                    Driver::Undriven | Driver::Input | Driver::Dff(_) => continue,
                };
                match marks[mark_slot(dep)] {
                    Mark::Black => {}
                    Mark::Grey => {
                        return Err(SimError::CombinationalCycle {
                            module: module.name.clone(),
                            net: n.index(),
                        })
                    }
                    Mark::White => {
                        marks[mark_slot(dep)] = Mark::Grey;
                        stack.push((dep, 0));
                    }
                }
            }
        }
        Ok(order)
    }

    /// The reader lists of every net.
    pub(crate) fn readers(&self) -> Readers {
        let module = self.module;
        let mut reads: Vec<(usize, Reader)> = Vec::new();
        let mut read = |sigs: &[Signal], at: &dyn Fn(usize) -> Reader| {
            let nets = sigs.iter().map(|s| s.net().map(NetId::index));
            reads.extend((0..).zip(nets).filter_map(|(pin, n)| Some((n?, at(pin)))));
        };
        for (i, g) in module.gates.iter().enumerate() {
            read(&g.inputs, &|pin| Reader::GatePin(i, pin));
        }
        for (i, r) in module.roms.iter().enumerate() {
            read(&r.addr, &|pin| Reader::RomAddr(i, pin));
        }
        for (i, p) in module.outputs.iter().enumerate() {
            read(&p.bits, &|pin| Reader::OutputBit(i, pin));
        }
        // Stable, so each net's readers keep the order they were read in.
        reads.sort_by_key(|&(net, _)| net);
        let mut start = vec![0usize; self.drivers.len() + 1];
        for &(net, _) in &reads {
            start[net + 1] += 1;
        }
        for n in 0..self.drivers.len() {
            start[n + 1] += start[n];
        }
        let list = reads.into_iter().map(|(_, reader)| reader).collect();
        Readers { start, list }
    }
}

/// The driver table of `module`, or the text of the first violation
/// [`Module::validate`] reports.
pub(crate) fn drivers(module: &Module) -> Result<Vec<Driver>, String> {
    let mut drivers = vec![Driver::Undriven; module.net_count()];
    // Claims `net` for `driver`; `what` names it, built only on failure.
    let mut drive = |net: NetId, driver, what: &dyn Fn() -> String| {
        let i = net.index();
        match drivers.get_mut(i) {
            None => Err(format!("{} drives unallocated net {i}", what())),
            Some(slot @ Driver::Undriven) => {
                *slot = driver;
                Ok(())
            }
            Some(_) => Err(format!("net {i} has multiple drivers (latest: {})", what())),
        }
    };
    for port in &module.inputs {
        for bit in &port.bits {
            let Signal::Net(n) = *bit else {
                return Err(format!("input port {} contains a constant bit", port.name));
            };
            drive(n, Driver::Input, &|| format!("input port {}", port.name))?;
        }
    }
    for (i, gate) in module.gates.iter().enumerate() {
        if gate.inputs.len() != gate.kind.input_count() {
            return Err(format!(
                "gate {i} ({}) has {} inputs, expected {}",
                gate.kind,
                gate.inputs.len(),
                gate.kind.input_count()
            ));
        }
        let driver = if gate.kind.is_sequential() {
            Driver::Dff(i)
        } else {
            Driver::Gate(i)
        };
        drive(gate.output, driver, &|| format!("gate {i} ({})", gate.kind))?;
    }
    for (i, rom) in module.roms.iter().enumerate() {
        for net in &rom.data {
            drive(*net, Driver::Rom(i), &|| format!("rom {i}"))?;
        }
        if rom.addr.is_empty() {
            return Err(format!("rom {i} has no address bits"));
        }
    }
    let used = module
        .gates
        .iter()
        .flat_map(|g| g.inputs.iter())
        .chain(module.roms.iter().flat_map(|r| r.addr.iter()))
        .chain(module.outputs.iter().flat_map(|p| p.bits.iter()));
    for n in used.filter_map(|s| s.net()) {
        match drivers.get(n.index()) {
            None => return Err(format!("reference to unallocated net {}", n.index())),
            Some(Driver::Undriven) => {
                return Err(format!("net {} is read but never driven", n.index()))
            }
            Some(_) => {}
        }
    }
    Ok(drivers)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use pdk::RomStyle;

    /// `a = and(x, buf(a))`: structurally valid, but combinational
    /// through a loop (the cycle is reported through net 1, `a`).
    pub(crate) fn and_buf_loop() -> Module {
        let mut b = NetlistBuilder::new("loop");
        let x = b.input("x", 1);
        let a = b.and(x[0], Signal::ZERO);
        let and_gate = b.last_gate_index();
        let fed_back = b.buf(a);
        b.patch_gate_input(and_gate, 1, fed_back);
        b.output("a", &[a]);
        b.finish()
    }

    #[test]
    fn drivers_and_order_treat_flip_flops_as_sources() -> Result<(), SimError> {
        // q <= and(x, q) closes its loop through a register, which is
        // accepted; the ROM addressed by q is a root of its own.
        let mut b = NetlistBuilder::new("kinds");
        let x = b.input("x", 1);
        let spare = b.fresh_net();
        let q = b.dff(Signal::ZERO, false);
        let a = b.and(x[0], q);
        b.set_dff_input(q, a);
        let d = b.rom(&[q], vec![1, 0], 1, RomStyle::Crossbar);
        b.output("d", &d);
        let m = b.finish();
        let graph = Graph::new(&m)?;
        let net = |s: Signal| s.net().expect("a net");
        assert_eq!(graph.driver(net(x[0])), Driver::Input);
        assert_eq!(graph.driver(spare), Driver::Undriven);
        assert_eq!(graph.driver(net(q)), Driver::Dff(0));
        assert_eq!(graph.driver(net(a)), Driver::Gate(1));
        assert_eq!(graph.driver(net(d[0])), Driver::Rom(0));
        assert_eq!(graph.order()?, vec![Item::Gate(1), Item::Rom(0)]);
        Ok(())
    }

    #[test]
    fn cycles_through_roms_are_reported() {
        // An inverter reading the ROM it addresses.
        let mut b = NetlistBuilder::new("rom_loop");
        let inv = b.not(Signal::ZERO);
        let d = b.rom(&[inv], vec![0, 1], 1, RomStyle::Crossbar);
        b.patch_gate_input(0, 0, d[0]);
        b.output("d", &d);
        let m = b.finish();
        assert_eq!(
            Graph::new(&m).and_then(|g| g.order()),
            Err(SimError::CombinationalCycle {
                module: "rom_loop".into(),
                net: inv.net().expect("a net").index()
            })
        );
    }
}
