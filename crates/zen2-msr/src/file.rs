//! Per-thread MSR register file with `/dev/cpu/N/msr`-like semantics.
//!
//! Software (the experiments) accesses registers through [`MsrFile::read`]
//! and [`MsrFile::write`], which enforce the architectural access rules:
//! unknown registers fault like a #GP, read-only registers reject writes.
//! The simulator plays the hardware role through [`MsrFile::poke`], which
//! bypasses access control to keep status registers coherent with the
//! machine state.

use crate::address as addr;
use crate::cstate_addr::CstateBaseAddress;
use crate::pstate::PstateTable;
use crate::rapl::RaplUnits;
use std::fmt;
use zen2_topology::{ThreadId, Topology};

/// Errors surfaced to software MSR accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsrError {
    /// The register is not implemented on this part; a real `rdmsr`/`wrmsr`
    /// raises #GP and the msr module returns EIO.
    GeneralProtectionFault {
        /// The faulting register address.
        msr: u32,
    },
    /// The register exists but rejects software writes.
    ReadOnly {
        /// The register address.
        msr: u32,
    },
    /// The thread id is outside the machine.
    NoSuchCpu {
        /// The raw thread index.
        thread: u32,
    },
}

impl fmt::Display for MsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsrError::GeneralProtectionFault { msr } => {
                write!(f, "rdmsr/wrmsr 0x{msr:08X}: general protection fault (unimplemented)")
            }
            MsrError::ReadOnly { msr } => write!(f, "wrmsr 0x{msr:08X}: register is read-only"),
            MsrError::NoSuchCpu { thread } => write!(f, "no MSR file for thread {thread}"),
        }
    }
}

impl std::error::Error for MsrError {}

/// Registers each hardware thread implements: 11 fixed registers plus
/// the P-state definitions.
const SLOTS: usize = 11 + addr::NUM_PSTATE_DEFS as usize;

/// The storage slot of an implemented register; `None` for every
/// register this part does not implement. This match is the one place
/// the implemented register set is defined.
fn slot(msr: u32) -> Option<usize> {
    Some(match msr {
        addr::TSC => 0,
        addr::MPERF => 1,
        addr::APERF => 2,
        addr::HWCR => 3,
        addr::PSTATE_CUR_LIM => 4,
        addr::PSTATE_CTL => 5,
        addr::PSTATE_STAT => 6,
        addr::CSTATE_BASE_ADDR => 7,
        addr::RAPL_PWR_UNIT => 8,
        addr::CORE_ENERGY_STAT => 9,
        addr::PKG_ENERGY_STAT => 10,
        _ if (addr::PSTATE_DEF_BASE..addr::PSTATE_DEF_BASE + addr::NUM_PSTATE_DEFS)
            .contains(&msr) =>
        {
            11 + (msr - addr::PSTATE_DEF_BASE) as usize
        }
        _ => return None,
    })
}

/// The slot of a register the simulator itself touches.
///
/// # Panics
/// Panics on unimplemented registers — a simulator bug.
fn hw_slot(msr: u32) -> usize {
    slot(msr).unwrap_or_else(|| panic!("simulator touched unimplemented MSR 0x{msr:08X}"))
}

/// Registers that reject software writes. P-state definitions are locked on
/// production parts; status/limit/energy registers are hardware-owned.
fn read_only(msr: u32) -> bool {
    matches!(
        msr,
        addr::PSTATE_CUR_LIM
            | addr::PSTATE_STAT
            | addr::RAPL_PWR_UNIT
            | addr::CORE_ENERGY_STAT
            | addr::PKG_ENERGY_STAT
            | addr::TSC
            | addr::MPERF
            | addr::APERF
    ) || (addr::PSTATE_DEF_BASE..addr::PSTATE_DEF_BASE + addr::NUM_PSTATE_DEFS).contains(&msr)
}

/// Per-thread MSR storage for a whole machine: one fixed slot per
/// implemented register, so a copy is a single memcpy.
#[derive(Debug, Clone)]
pub struct MsrFile {
    per_thread: Vec<[u64; SLOTS]>,
}

impl MsrFile {
    /// Initializes the register file for a topology with the EPYC 7502
    /// reset values: the paper's three-entry P-state table, AMD RAPL units,
    /// and the Rome C-state I/O window.
    pub fn new(topology: &Topology) -> Self {
        Self::with_pstate_table(topology, &PstateTable::epyc_7502())
    }

    /// Initializes with a caller-provided P-state table. Counters,
    /// `HWCR`, `PStateCtl`/`PStateStat` and the energy registers reset
    /// to 0.
    pub fn with_pstate_table(topology: &Topology, table: &PstateTable) -> Self {
        let mut template = [0u64; SLOTS];
        let mut set = |msr, value| template[hw_slot(msr)] = value;
        set(addr::PSTATE_CUR_LIM, table.cur_lim_register());
        set(addr::CSTATE_BASE_ADDR, CstateBaseAddress::rome_default().encode());
        set(addr::RAPL_PWR_UNIT, RaplUnits::amd_default().encode());
        for i in 0..addr::NUM_PSTATE_DEFS {
            set(addr::pstate_def(i), table.get(i as usize).map(|d| d.encode()).unwrap_or(0));
        }
        Self { per_thread: vec![template; topology.num_threads()] }
    }

    fn regs(&self, thread: ThreadId) -> Result<&[u64; SLOTS], MsrError> {
        self.per_thread.get(thread.index()).ok_or(MsrError::NoSuchCpu { thread: thread.0 })
    }

    fn regs_mut(&mut self, thread: ThreadId) -> Result<&mut [u64; SLOTS], MsrError> {
        self.per_thread.get_mut(thread.index()).ok_or(MsrError::NoSuchCpu { thread: thread.0 })
    }

    /// Software read (rdmsr through the msr module).
    pub fn read(&self, thread: ThreadId, msr: u32) -> Result<u64, MsrError> {
        let slot = slot(msr).ok_or(MsrError::GeneralProtectionFault { msr })?;
        Ok(self.regs(thread)?[slot])
    }

    /// Software write (wrmsr through the msr module).
    pub fn write(&mut self, thread: ThreadId, msr: u32, value: u64) -> Result<(), MsrError> {
        let slot = slot(msr).ok_or(MsrError::GeneralProtectionFault { msr })?;
        if read_only(msr) {
            return Err(MsrError::ReadOnly { msr });
        }
        self.regs_mut(thread)?[slot] = value;
        Ok(())
    }

    /// Hardware-side write: the simulator keeps status registers coherent.
    ///
    /// # Panics
    /// Panics on unknown threads or unimplemented registers — those are
    /// simulator bugs, not recoverable software errors.
    pub fn poke(&mut self, thread: ThreadId, msr: u32, value: u64) {
        self.per_thread[thread.index()][hw_slot(msr)] = value;
    }

    /// Hardware-side read without access checks.
    ///
    /// # Panics
    /// Panics on unknown threads or unimplemented registers.
    pub fn peek(&self, thread: ThreadId, msr: u32) -> u64 {
        self.per_thread[thread.index()][hw_slot(msr)]
    }

    /// Adds a counter increment to a hardware-owned register (TSC, APERF,
    /// MPERF, energy counters), wrapping at the register's natural width.
    pub fn bump(&mut self, thread: ThreadId, msr: u32, delta: u64, width_bits: u32) {
        let old = self.peek(thread, msr);
        let mask = if width_bits >= 64 { u64::MAX } else { (1u64 << width_bits) - 1 };
        self.poke(thread, msr, old.wrapping_add(delta) & mask);
    }

    /// Number of per-thread register files.
    pub fn num_threads(&self) -> usize {
        self.per_thread.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pstate::PstateTable;

    fn file() -> MsrFile {
        MsrFile::new(&Topology::epyc_7502_2s())
    }

    #[test]
    fn reset_values_expose_paper_pstate_table() {
        let f = file();
        let t0 = ThreadId(0);
        let lim = f.read(t0, addr::PSTATE_CUR_LIM).unwrap();
        assert_eq!(PstateTable::num_pstates_from_cur_lim(lim), 3);
        let p0 = crate::PstateDef::decode(f.read(t0, addr::pstate_def(0)).unwrap());
        assert_eq!(p0.frequency_mhz(), Some(2500));
        let p2 = crate::PstateDef::decode(f.read(t0, addr::pstate_def(2)).unwrap());
        assert_eq!(p2.frequency_mhz(), Some(1500));
        // Undefined table slots decode as disabled.
        let p7 = crate::PstateDef::decode(f.read(t0, addr::pstate_def(7)).unwrap());
        assert!(!p7.enabled);
    }

    #[test]
    fn unimplemented_msr_faults_like_gp() {
        let f = file();
        let err = f.read(ThreadId(0), addr::INTEL_PKG_ENERGY_STATUS).unwrap_err();
        assert_eq!(err, MsrError::GeneralProtectionFault { msr: 0x611 });
        assert!(err.to_string().contains("general protection"));
    }

    #[test]
    fn status_registers_reject_software_writes() {
        let mut f = file();
        for msr in [addr::PSTATE_STAT, addr::CORE_ENERGY_STAT, addr::RAPL_PWR_UNIT, addr::APERF] {
            assert_eq!(
                f.write(ThreadId(3), msr, 1).unwrap_err(),
                MsrError::ReadOnly { msr },
                "0x{msr:08X}"
            );
        }
        // PStateCtl is the software knob and accepts writes.
        f.write(ThreadId(3), addr::PSTATE_CTL, 2).unwrap();
        assert_eq!(f.read(ThreadId(3), addr::PSTATE_CTL).unwrap(), 2);
    }

    #[test]
    fn pstate_defs_are_locked() {
        let mut f = file();
        let err = f.write(ThreadId(0), addr::pstate_def(0), 0).unwrap_err();
        assert_eq!(err, MsrError::ReadOnly { msr: addr::pstate_def(0) });
    }

    #[test]
    fn poke_updates_hardware_owned_state() {
        let mut f = file();
        f.poke(ThreadId(9), addr::PSTATE_STAT, 2);
        assert_eq!(f.read(ThreadId(9), addr::PSTATE_STAT).unwrap(), 2);
        // Other threads are unaffected.
        assert_eq!(f.read(ThreadId(8), addr::PSTATE_STAT).unwrap(), 0);
    }

    #[test]
    fn bump_wraps_at_register_width() {
        let mut f = file();
        f.poke(ThreadId(0), addr::CORE_ENERGY_STAT, u32::MAX as u64);
        f.bump(ThreadId(0), addr::CORE_ENERGY_STAT, 5, 32);
        assert_eq!(f.peek(ThreadId(0), addr::CORE_ENERGY_STAT), 4);
        f.poke(ThreadId(0), addr::APERF, u64::MAX);
        f.bump(ThreadId(0), addr::APERF, 2, 64);
        assert_eq!(f.peek(ThreadId(0), addr::APERF), 1);
    }

    #[test]
    fn out_of_range_thread_errors() {
        let f = file();
        assert_eq!(
            f.read(ThreadId(128), addr::TSC).unwrap_err(),
            MsrError::NoSuchCpu { thread: 128 }
        );
    }

    #[test]
    fn per_thread_isolation() {
        let mut f = file();
        f.write(ThreadId(0), addr::PSTATE_CTL, 1).unwrap();
        f.write(ThreadId(1), addr::PSTATE_CTL, 2).unwrap();
        assert_eq!(f.read(ThreadId(0), addr::PSTATE_CTL).unwrap(), 1);
        assert_eq!(f.read(ThreadId(1), addr::PSTATE_CTL).unwrap(), 2);
        assert_eq!(f.num_threads(), 128);
    }
}
