use infs_isa::{FatBinary, IsaError};
use infs_sdfg::Memory;
use infs_sim::{ExecMode, Machine, RegionReport, RunStats, SimError, SystemConfig};
use std::error::Error;
use std::fmt;

/// Errors from the high-level session API.
#[derive(Debug)]
#[non_exhaustive]
pub enum SessionError {
    /// No region with the given name exists in the fat binary.
    UnknownRegion(String),
    /// The fat binary is empty (a session needs at least one region's arrays).
    EmptyBinary,
    /// The binary's regions disagree on the shared array table.
    InconsistentArrays(String),
    /// Region instantiation failed.
    Isa(IsaError),
    /// Simulation failed.
    Sim(SimError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownRegion(n) => write!(f, "no region named '{n}' in the binary"),
            SessionError::EmptyBinary => write!(f, "fat binary contains no regions"),
            SessionError::InconsistentArrays(n) => {
                write!(f, "region '{n}' declares a different array table")
            }
            SessionError::Isa(e) => write!(f, "instantiation failed: {e}"),
            SessionError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Isa(e) => Some(e),
            SessionError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsaError> for SessionError {
    fn from(e: IsaError) -> Self {
        SessionError::Isa(e)
    }
}

impl From<SimError> for SessionError {
    fn from(e: SimError) -> Self {
        SessionError::Sim(e)
    }
}

/// A program loaded onto the simulated machine: the top-level convenience that
/// mirrors the paper's deployment story — one fat binary, one machine, regions
/// entered by name with fresh symbols/parameters each time (`inf_cfg`).
///
/// All regions of the binary must share one array table (the same
/// declarations in the same order), which is how multi-phase workloads share
/// data. See the crate-level quickstart.
#[derive(Debug)]
pub struct Session {
    machine: Machine,
    binary: FatBinary,
    mode: ExecMode,
}

// Compile-time audit: sessions are moved onto worker threads by parallel
// sweeps, and session errors cross thread boundaries inside results. Holds
// with no `unsafe impl` because everything inside is owned plain data.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
    assert_send::<SessionError>();
};

impl Session {
    /// Opens a session: allocates functional memory for the binary's array
    /// table on a machine configured for `mode`.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::EmptyBinary`] or
    /// [`SessionError::InconsistentArrays`] for malformed binaries.
    pub fn new(cfg: SystemConfig, binary: FatBinary, mode: ExecMode) -> Result<Self, SessionError> {
        let arrays = Self::validate(&binary)?;
        Ok(Session {
            machine: Machine::new(cfg, &arrays),
            binary,
            mode,
        })
    }

    /// Checks the binary is non-empty and its regions agree on one array
    /// table; returns that table.
    fn validate(binary: &FatBinary) -> Result<Vec<infs_sdfg::ArrayDecl>, SessionError> {
        let first = binary.regions.first().ok_or(SessionError::EmptyBinary)?;
        let arrays = first.kernel().arrays().to_vec();
        for r in &binary.regions {
            if r.kernel().arrays() != arrays.as_slice() {
                return Err(SessionError::InconsistentArrays(r.name().to_string()));
            }
        }
        Ok(arrays)
    }

    /// Mutable functional memory (write inputs here).
    pub fn memory(&mut self) -> &mut Memory {
        self.machine.memory()
    }

    /// Read-only functional memory (read results here).
    pub fn memory_ref(&self) -> &Memory {
        self.machine.memory_ref()
    }

    /// The underlying machine: pre-run setup (transposed-data assumptions,
    /// timing-only mode, fault plan, auditor) and [`Machine::run`], the
    /// entry that takes a per-run [`infs_sim::RunPlan`].
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Enters a region by name with symbol bindings and runtime parameters —
    /// the `inf_cfg` moment: instantiate, lay out, place on a tier, JIT,
    /// execute.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::UnknownRegion`] for a bad name, instantiation
    /// errors (bad symbols), or simulation errors.
    pub fn run(
        &mut self,
        region: &str,
        syms: &[i64],
        params: &[f32],
    ) -> Result<RegionReport, SessionError> {
        let compiled = self
            .binary
            .region(region)
            .ok_or_else(|| SessionError::UnknownRegion(region.to_string()))?;
        let instance = compiled.instantiate(syms)?;
        Ok(self.machine.run_region(&instance, params, self.mode)?)
    }

    /// Finishes the session, returning accumulated statistics.
    pub fn finish(self) -> RunStats {
        self.machine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
    use infs_isa::Compiler;
    use infs_sdfg::DataType;

    fn binary() -> (FatBinary, infs_sdfg::ArrayId) {
        let n = 256u64;
        let mut k = KernelBuilder::new("scale", DataType::F32);
        let a = k.array("A", vec![n]);
        let i = k.parallel_loop("i", 0, n as i64);
        k.assign(
            a,
            vec![Idx::var(i)],
            ScalarExpr::mul(ScalarExpr::load(a, vec![Idx::var(i)]), ScalarExpr::Param(0)),
        );
        let mut fb = FatBinary::new();
        fb.push(
            Compiler::default()
                .compile(k.build().unwrap(), &[])
                .unwrap(),
        );
        (fb, a)
    }

    #[test]
    fn run_by_name_with_params() {
        let (fb, a) = binary();
        let mut s = Session::new(SystemConfig::default(), fb, ExecMode::InfS).unwrap();
        s.memory().write_array(a, &vec![2.0; 256]);
        let r = s.run("scale", &[], &[3.0]).unwrap();
        assert!(r.cycles > 0);
        assert!(s.memory_ref().array(a).iter().all(|&x| x == 6.0));
        let stats = s.finish();
        assert!(stats.cycles >= r.cycles);
    }

    #[test]
    fn unknown_region_is_an_error() {
        let (fb, _) = binary();
        let mut s = Session::new(SystemConfig::default(), fb, ExecMode::NearL3).unwrap();
        assert!(matches!(
            s.run("nope", &[], &[]),
            Err(SessionError::UnknownRegion(_))
        ));
    }

    #[test]
    fn empty_binary_rejected() {
        assert!(matches!(
            Session::new(SystemConfig::default(), FatBinary::new(), ExecMode::InfS),
            Err(SessionError::EmptyBinary)
        ));
    }

    /// Two regions declaring different array tables cannot share a session;
    /// the error names the offending region.
    #[test]
    fn inconsistent_arrays_rejected() {
        let (mut fb, _) = binary();
        let mut k = KernelBuilder::new("other", DataType::F32);
        let b = k.array("B", vec![128]); // different table: one array, len 128
        let i = k.parallel_loop("i", 0, 128);
        k.assign(b, vec![Idx::var(i)], ScalarExpr::load(b, vec![Idx::var(i)]));
        fb.push(
            Compiler::default()
                .compile(k.build().unwrap(), &[])
                .unwrap(),
        );
        match Session::new(SystemConfig::default(), fb, ExecMode::InfS) {
            Err(SessionError::InconsistentArrays(name)) => {
                assert_eq!(name, "other");
            }
            other => panic!("expected InconsistentArrays, got {other:?}"),
        }
    }

    /// Error Display strings are client-visible through the serving layer;
    /// pin the three binary-shape variants.
    #[test]
    fn error_messages_name_the_cause() {
        assert!(SessionError::UnknownRegion("f".into())
            .to_string()
            .contains("no region named 'f'"));
        assert!(SessionError::EmptyBinary.to_string().contains("no regions"));
        assert!(SessionError::InconsistentArrays("g".into())
            .to_string()
            .contains("'g'"));
    }
}
