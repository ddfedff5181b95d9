//! Process-wide memoization of assembled kernel programs.
//!
//! Assembling a set-op or sort kernel is deterministic in the processor
//! model, the kernel selection, and the data layout. Bench sweeps and the
//! runner's retry loop would otherwise re-assemble (and re-verify) the
//! identical program for every point or attempt; the cache hands out
//! [`Arc<Program>`] handles instead, which the simulator's shared-program
//! loader ([`dbx_cpu::Processor::load_program_shared`]) accepts without
//! copying the instruction image.
//!
//! The cache is a plain mutex-guarded map: kernel assembly happens well
//! off the per-cycle path, and holding the lock across a miss means two
//! host threads racing on the same key assemble it once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dbx_cpu::program::Program;
use dbx_cpu::SimError;

use crate::configs::ProcModel;
use crate::datapath::SetOpKind;
use crate::kernels::{SetLayout, SortLayout};

/// Memoization key: everything a kernel's assembly depends on. The layout
/// is part of the key because base addresses and element counts are baked
/// into the emitted immediates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ProgKey {
    /// A sorted-set operation kernel.
    SetOp {
        /// Processor model the program was assembled for.
        model: ProcModel,
        /// The set operation.
        kind: SetOpKind,
        /// Input/output placement.
        layout: SetLayout,
    },
    /// A merge-sort kernel.
    Sort {
        /// Processor model (already lowered to its 1-LSU sort form).
        model: ProcModel,
        /// Ping-pong buffer placement.
        layout: SortLayout,
    },
}

/// A memoized assembly result.
#[derive(Clone)]
pub(crate) struct CachedProgram {
    /// The assembled (and preflight-verified) program.
    pub program: Arc<Program>,
    /// Sort kernels only: whether the sorted data ends in the scratch
    /// buffer (odd number of merge passes). `false` for set operations.
    pub in_dst: bool,
}

/// Cache capacity bound. On overflow the map is cleared outright — a
/// deterministic policy that keeps the steady state simple; sweeps cycle
/// through far fewer distinct (model, kernel, layout) triples than this.
const CACHE_CAP: usize = 256;

static ASSEMBLIES: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<HashMap<ProgKey, CachedProgram>> {
    static CACHE: OnceLock<Mutex<HashMap<ProgKey, CachedProgram>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of programs actually assembled (cache misses) since process
/// start. Monotone; regression tests assert on deltas of this to prove a
/// run (including its retries) assembles each kernel at most once.
pub fn assemblies() -> u64 {
    ASSEMBLIES.load(Ordering::Relaxed)
}

fn assembly_counts() -> &'static Mutex<HashMap<ProgKey, u64>> {
    static COUNTS: OnceLock<Mutex<HashMap<ProgKey, u64>>> = OnceLock::new();
    COUNTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// How often `key` has been assembled since process start. Unlike
/// [`assemblies`], this is immune to unrelated kernels assembled by
/// concurrently running tests, and it survives capacity clears of the
/// cache itself.
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
/// (bad layouts, preflight failures) are never cached, so every caller
/// sees them.
pub(crate) fn get_or_assemble(
    key: ProgKey,
    build: impl FnOnce() -> Result<CachedProgram, SimError>,
) -> Result<CachedProgram, SimError> {
    let mut map = cache().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = map.get(&key) {
        return Ok(hit.clone());
    }
    let built = build()?;
    ASSEMBLIES.fetch_add(1, Ordering::Relaxed);
    *assembly_counts()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry(key)
        .or_insert(0) += 1;
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.insert(key, built.clone());
    Ok(built)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u32) -> ProgKey {
        ProgKey::Sort {
            model: ProcModel::Dba1Lsu,
            layout: SortLayout {
                src: 0x1000,
                dst: 0x2000,
                n,
            },
        }
    }

    fn dummy() -> CachedProgram {
        let mut b = dbx_cpu::program::ProgramBuilder::new();
        b.halt();
        CachedProgram {
            program: Arc::new(b.build().unwrap()),
            in_dst: false,
        }
    }

    #[test]
    fn hit_does_not_reassemble() {
        let k = key(u32::MAX); // distinct from any real layout
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
}
