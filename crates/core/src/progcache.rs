//! Process-wide memoization of kernel templates.
//!
//! Every kernel builder emits its layout-dependent immediates as program
//! parameters (see [`crate::kernels`]), so one assembled program serves
//! every data layout whose parameter values encode at the same `MOVI`
//! widths; the runner binds the actual values on the processor at load
//! time. The cache key is therefore the processor model, the kernel, and
//! the width class of each parameter — a handful of entries in total, so
//! the cache never evicts. It hands out [`Arc<Program>`] handles, which
//! [`dbx_cpu::Processor::load_program_shared`] accepts without copying.
//!
//! The cache is a plain mutex-guarded map: lookups happen once per kernel
//! run, and holding the lock across a miss means two host threads racing
//! on the same key assemble it once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dbx_cpu::isa::movi_is_wide;
use dbx_cpu::program::Program;
use dbx_cpu::SimError;

use crate::configs::ProcModel;
use crate::datapath::SetOpKind;

/// Memoization key: everything a template's assembly depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ProgKey {
    /// A sorted-set operation kernel.
    SetOp {
        /// Processor model the program was assembled for.
        model: ProcModel,
        /// The set operation.
        kind: SetOpKind,
        /// Width class of the parameters ([`width_class`]).
        wide: u32,
    },
    /// A merge-sort kernel.
    Sort {
        /// Processor model (already lowered to its 1-LSU sort form).
        model: ProcModel,
        /// Width class of the parameters ([`width_class`]).
        wide: u32,
    },
    /// The `SUM` reduction (one program for every model).
    Sum {
        /// Width class of the parameters ([`width_class`]).
        wide: u32,
    },
}

/// The width class of a parameter binding: bit `k` is set when value `k`
/// needs the wide (literal-word) `MOVI` encoding.
pub(crate) fn width_class(params: &[u32]) -> u32 {
    params
        .iter()
        .enumerate()
        .fold(0, |m, (k, &v)| m | u32::from(movi_is_wide(v as i32)) << k)
}

static ASSEMBLIES: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<HashMap<ProgKey, Arc<Program>>> {
    static CACHE: OnceLock<Mutex<HashMap<ProgKey, Arc<Program>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of programs actually assembled (cache misses) since process
/// start. Monotone; regression tests assert on deltas of this to prove a
/// run (including its retries) assembles each kernel at most once.
pub fn assemblies() -> u64 {
    ASSEMBLIES.load(Ordering::Relaxed)
}

#[cfg(test)]
fn assembly_counts() -> &'static Mutex<HashMap<ProgKey, u64>> {
    static COUNTS: OnceLock<Mutex<HashMap<ProgKey, u64>>> = OnceLock::new();
    COUNTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// How often `key` has been assembled since process start. Unlike
/// [`assemblies`], this is immune to unrelated kernels assembled by
/// concurrently running tests.
#[cfg(test)]
pub(crate) fn assemblies_for(key: &ProgKey) -> u64 {
    assembly_counts()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(key)
        .copied()
        .unwrap_or(0)
}

/// Looks up `key`, assembling with `build` on a miss. Errors from `build`
/// are never cached, so every caller sees them.
pub(crate) fn get_or_assemble(
    key: ProgKey,
    build: impl FnOnce() -> Result<Program, SimError>,
) -> Result<Arc<Program>, SimError> {
    let mut map = cache().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = map.get(&key) {
        return Ok(Arc::clone(hit));
    }
    let built = Arc::new(build()?);
    ASSEMBLIES.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    {
        *assembly_counts()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert(0) += 1;
    }
    map.insert(key, Arc::clone(&built));
    Ok(built)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(wide: u32) -> ProgKey {
        ProgKey::Sort {
            model: ProcModel::Dba1Lsu,
            wide,
        }
    }

    fn dummy() -> Program {
        let mut b = dbx_cpu::program::ProgramBuilder::new();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn hit_does_not_reassemble() {
        let k = key(u32::MAX); // distinct from any real width class
        let before = assemblies_for(&k);
        get_or_assemble(k, || Ok(dummy())).unwrap();
        get_or_assemble(k, || panic!("cache hit must not rebuild")).unwrap();
        assert_eq!(assemblies_for(&k), before + 1);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let k = key(u32::MAX - 1);
        let r = get_or_assemble(k, || Err(SimError::BadProgram("nope".into())));
        assert!(r.is_err());
        // The next attempt still runs the builder.
        get_or_assemble(k, || Ok(dummy())).unwrap();
    }

    #[test]
    fn width_class_marks_wide_values() {
        assert_eq!(width_class(&[]), 0);
        assert_eq!(
            width_class(&[0x6000_0000, 16, 1 << 21, (1 << 21) - 1]),
            0b101
        );
    }
}
