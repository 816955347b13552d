//! Simulated shared memory: the communication substrate between core and
//! non-core components, with fault injection reproducing the paper's §4
//! failure scenarios.
//!
//! The paper's systems communicate through UNIX shared memory; here the
//! segment is a plain buffer with named regions and *writer identities*, so
//! scenarios can model a non-core component scribbling over memory it was
//! never supposed to touch ("supposedly read-only, but not enforced").

use std::collections::HashMap;

/// Who performed a write (used by fault accounting, not enforcement — the
/// whole point of the paper is that shared memory is NOT enforced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterId {
    /// The core component.
    Core,
    /// A non-core component (complex controller, UI, tooling).
    NonCore,
}

/// A named region within the simulated segment.
#[derive(Debug, Clone)]
struct Region {
    offset: usize,
    len: usize,
    noncore: bool,
}

/// The simulated shared-memory segment.
#[derive(Debug, Clone)]
pub struct SharedBus {
    cells: Vec<f64>,
    regions: HashMap<String, Region>,
    /// Count of writes by non-core components into regions the core
    /// believed it owned (the rigged-feedback scenario).
    pub noncore_overwrites: usize,
}

impl SharedBus {
    /// Creates an empty segment.
    pub fn new() -> SharedBus {
        SharedBus { cells: Vec::new(), regions: HashMap::new(), noncore_overwrites: 0 }
    }

    /// Declares a region of `len` cells; `noncore` marks regions non-core
    /// components legitimately write.
    pub fn declare(&mut self, name: &str, len: usize, noncore: bool) {
        let offset = self.cells.len();
        self.cells.extend(std::iter::repeat_n(0.0, len));
        self.regions.insert(name.to_string(), Region { offset, len, noncore });
    }

    /// Whether `name` is declared.
    pub fn has_region(&self, name: &str) -> bool {
        self.regions.contains_key(name)
    }

    /// Whether the region is writable by non-core components.
    pub fn is_noncore(&self, name: &str) -> bool {
        self.regions.get(name).map(|r| r.noncore).unwrap_or(false)
    }

    /// Reads cell `idx` of region `name`.
    ///
    /// # Panics
    ///
    /// Panics on unknown region or out-of-bounds index (the simulation
    /// equivalent of the paper's A1 violation).
    pub fn read(&self, name: &str, idx: usize) -> f64 {
        let r = &self.regions[name];
        assert!(idx < r.len, "A1 violation: {name}[{idx}] out of bounds");
        self.cells[r.offset + idx]
    }

    /// Writes cell `idx` of region `name` as `writer`.
    ///
    /// Writes are never *blocked* (shared memory has no enforcement); a
    /// non-core write into a core-owned region is tallied in
    /// [`SharedBus::noncore_overwrites`].
    pub fn write(&mut self, name: &str, idx: usize, value: f64, writer: WriterId) {
        let r = self.regions.get(name).unwrap_or_else(|| panic!("unknown region {name}"));
        assert!(idx < r.len, "A1 violation: {name}[{idx}] out of bounds");
        if writer == WriterId::NonCore && !r.noncore {
            self.noncore_overwrites += 1;
        }
        let off = r.offset + idx;
        self.cells[off] = value;
    }
}

impl Default for SharedBus {
    fn default() -> Self {
        SharedBus::new()
    }
}

/// Fault scenarios from the paper's §4 narrative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// No fault: the non-core side behaves.
    None,
    /// The non-core controller emits garbage commands (buggy
    /// implementation): huge magnitudes and occasional NaNs.
    GarbageCommands,
    /// The non-core side overwrites the published sensor feedback with a
    /// crafted value that makes the plant look perfectly centered —
    /// rigging any check that re-reads the feedback (generic Simplex
    /// defect).
    RigFeedback {
        /// Value written over every feedback cell.
        value: f64,
    },
    /// The non-core side replaces its advertised client pid with the
    /// core's own pid, so a watchdog `kill` fires at the core itself
    /// (kill-pid defect).
    RigPid {
        /// The pid planted in shared memory.
        pid: f64,
    },
    /// The non-core controller stops updating (stale data / heartbeat
    /// loss).
    Stale,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_read_write_round_trip() {
        let mut bus = SharedBus::new();
        bus.declare("fb", 4, true);
        bus.declare("status", 2, false);
        bus.write("fb", 2, 3.5, WriterId::Core);
        assert_eq!(bus.read("fb", 2), 3.5);
        assert_eq!(bus.read("fb", 0), 0.0);
        assert!(bus.has_region("status"));
        assert!(bus.is_noncore("fb"));
        assert!(!bus.is_noncore("status"));
    }

    #[test]
    fn noncore_overwrite_of_core_region_is_tallied_not_blocked() {
        let mut bus = SharedBus::new();
        bus.declare("status", 2, false);
        bus.write("status", 0, 9.0, WriterId::NonCore);
        assert_eq!(bus.noncore_overwrites, 1);
        // The write still lands — no enforcement, as in real shared memory.
        assert_eq!(bus.read("status", 0), 9.0);
    }

    #[test]
    #[should_panic(expected = "A1 violation")]
    fn out_of_bounds_read_panics() {
        let mut bus = SharedBus::new();
        bus.declare("fb", 2, true);
        let _ = bus.read("fb", 2);
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut bus = SharedBus::new();
        bus.declare("a", 3, false);
        bus.declare("b", 3, false);
        bus.write("a", 2, 1.0, WriterId::Core);
        assert_eq!(bus.read("b", 0), 0.0, "InitCheck: regions must be disjoint");
    }
}
