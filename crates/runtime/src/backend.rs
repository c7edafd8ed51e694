//! The backend abstraction: one trait ([`MacroBackend`]), four
//! implementations, one enum ([`BackendKind`]) to pick between them.
//!
//! The contract that makes the implementations interchangeable inside a
//! [`Session`](crate::session::Session): **every backend produces
//! bit-identical `outputs` for the same program and batch**. Latency and
//! energy differ by design — measured on RTL, modelled analytically,
//! absent functionally — but the 16-bit result of each decoder chain is
//! the wrapping LUT sum of the silicon, whoever computes it. The golden
//! proptest in `tests/backend_equivalence.rs` holds every kind (the
//! sharded composition included) to that contract.

use crate::batch::{BatchResult, TokenBatch};
use crate::error::BackendError;
use maddpipe_core::config::{MacroConfig, LEVELS, SUBVECTOR_LEN};
use maddpipe_core::macro_rtl::{AcceleratorRtl, MacroProgram};

/// Builds a backend on whatever thread ends up owning it. The closure
/// runs exactly once, off the caller's thread — which is what lets
/// non-`Send` backends (the event-driven netlist) live on shard workers
/// and queue dispatchers.
pub type BackendFactory =
    Box<dyn FnOnce() -> Result<Box<dyn MacroBackend>, BackendError> + Send + 'static>;

/// How faithfully the RTL backend drives the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// One token at a time, fully drained: exact per-token latency and
    /// energy, no overlap.
    #[default]
    Sequential,
    /// Self-synchronous streaming: token `t+1` enters while `t` is still
    /// in flight. Per-token outputs are captured at each output-register
    /// strobe; energy is reported per batch.
    Pipelined,
}

/// Which backend a [`Session`](crate::session::Session) should execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Pure LUT math ([`MacroProgram::reference_output`]) sharded across
    /// `workers` OS threads — the throughput backend.
    Functional {
        /// Worker threads (1 = run on the calling thread).
        workers: usize,
    },
    /// The event-driven netlist — the fidelity backend.
    Rtl {
        /// Sequential handshaking or pipelined streaming.
        fidelity: Fidelity,
    },
    /// The closed-form PPA model with data-dependent encoder timing — the
    /// planning backend.
    Analytic,
    /// `shards` macro instances serving one wide program in parallel, each
    /// owning a contiguous slice of the decoder chains (an even
    /// [`ShardPlan`](crate::plan::ShardPlan) over `cfg.ndec`) and running
    /// `inner` on its own worker thread — the serving-scale backend.
    Sharded {
        /// Macro instances the decoder chains are partitioned across.
        shards: usize,
        /// The backend kind every shard executes on.
        inner: ShardKind,
    },
    /// `inner` behind a content-addressed
    /// [`CachedBackend`](crate::cache::CachedBackend) result tier:
    /// repeated tokens are served from a bounded store instead of
    /// recomputed, and identical tokens within one batch are computed
    /// once (see [`crate::cache`] for the purity contract).
    Cached {
        /// Capacity bounds of the result store.
        cache: crate::cache::CacheConfig,
        /// The backend the cache fronts on a miss.
        inner: CachedKind,
    },
}

impl Default for BackendKind {
    fn default() -> BackendKind {
        BackendKind::Functional { workers: 1 }
    }
}

impl BackendKind {
    /// Validates `program` against `cfg` and constructs the backend this
    /// kind describes — the one construction path shared by the session
    /// builder and the serving queue's dispatcher factory.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ProgramMismatch`] /
    /// [`BackendError::MalformedProgram`] when the program does not fit
    /// the configuration, plus the chosen backend's own constructor
    /// errors (e.g. [`BackendError::InvalidShardPlan`] for sharded
    /// kinds).
    pub fn build(
        self,
        cfg: &MacroConfig,
        program: MacroProgram,
    ) -> Result<Box<dyn MacroBackend>, BackendError> {
        validate_program(cfg, &program)?;
        Ok(match self {
            BackendKind::Functional { workers } => Box::new(
                crate::functional::FunctionalBackend::with_workers(program, workers),
            ),
            BackendKind::Rtl { fidelity } => {
                Box::new(crate::rtl::RtlBackend::new(cfg, &program, fidelity)?)
            }
            BackendKind::Analytic => Box::new(crate::analytic::AnalyticBackend::new(cfg, program)?),
            BackendKind::Sharded { shards, inner } => Box::new(
                crate::sharded::ShardedBackend::uniform(cfg, &program, shards, inner)?,
            ),
            BackendKind::Cached { cache, inner } => {
                let inner_backend = BackendKind::from(inner).build(cfg, program.clone())?;
                Box::new(crate::cache::CachedBackend::new(
                    inner_backend,
                    &program,
                    cache,
                ))
            }
        })
    }

    /// The rebuildable `(program, kind)` recipe every replica and macro
    /// stage is built from: each call constructs a fresh backend on the
    /// calling thread, so a replica thread builds its own (netlists are
    /// not `Send`) and a crashed one can be rebuilt.
    pub(crate) fn recipe(
        self,
        cfg: MacroConfig,
        program: MacroProgram,
    ) -> crate::pool::ReplicaFactory {
        std::sync::Arc::new(move || self.build(&cfg, program.clone()))
    }
}

/// What a [`BackendKind::Cached`] tier fronts — every [`BackendKind`]
/// except another cache (cache tiers do not nest; a sharded inner sits
/// behind one store shared by all its shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedKind {
    /// Pure LUT math on `workers` threads.
    Functional {
        /// Worker threads (1 = the owning thread).
        workers: usize,
    },
    /// The event-driven netlist.
    Rtl {
        /// Sequential handshaking or pipelined streaming.
        fidelity: Fidelity,
    },
    /// The closed-form PPA model.
    Analytic,
    /// A sharded composition behind the cache.
    Sharded {
        /// Macro instances the decoder chains are partitioned across.
        shards: usize,
        /// The backend kind every shard executes on.
        inner: ShardKind,
    },
}

impl Default for CachedKind {
    fn default() -> CachedKind {
        CachedKind::Functional { workers: 1 }
    }
}

impl From<CachedKind> for BackendKind {
    fn from(kind: CachedKind) -> BackendKind {
        match kind {
            CachedKind::Functional { workers } => BackendKind::Functional { workers },
            CachedKind::Rtl { fidelity } => BackendKind::Rtl { fidelity },
            CachedKind::Analytic => BackendKind::Analytic,
            CachedKind::Sharded { shards, inner } => BackendKind::Sharded { shards, inner },
        }
    }
}

/// The backend one shard of a
/// [`ShardedBackend`](crate::sharded::ShardedBackend) executes on — the
/// leaf kinds of [`BackendKind`] (shards do not nest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKind {
    /// Pure LUT math on `workers` threads per shard.
    Functional {
        /// Worker threads per shard (1 = the shard's own thread).
        workers: usize,
    },
    /// The event-driven netlist, one per shard.
    Rtl {
        /// Sequential handshaking or pipelined streaming.
        fidelity: Fidelity,
    },
    /// The closed-form PPA model, one per shard.
    Analytic,
}

impl Default for ShardKind {
    fn default() -> ShardKind {
        ShardKind::Functional { workers: 1 }
    }
}

impl From<ShardKind> for BackendKind {
    fn from(kind: ShardKind) -> BackendKind {
        match kind {
            ShardKind::Functional { workers } => BackendKind::Functional { workers },
            ShardKind::Rtl { fidelity } => BackendKind::Rtl { fidelity },
            ShardKind::Analytic => BackendKind::Analytic,
        }
    }
}

/// A uniform executor of [`TokenBatch`]es against one programmed macro.
///
/// Implementations must produce bit-identical `outputs` for the same
/// program and batch — that contract is enforced by the cross-backend
/// golden tests (`tests/backend_equivalence.rs`).
pub trait MacroBackend {
    /// Short stable name for logs, stats and results files.
    fn name(&self) -> &'static str;

    /// Runs every token of the batch, in order. A successful result
    /// carries exactly one [`TokenObservation`](crate::batch::TokenObservation)
    /// per input token, in submission order — compositions such as the
    /// sharded backend rely on that alignment when they reassemble
    /// outputs.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ShapeMismatch`] for malformed tokens (the
    /// batch is rejected before any work starts) and backend-specific
    /// failures such as [`BackendError::Oscillation`].
    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError>;

    /// The underlying netlist, when this backend drives one — lets tests
    /// probe violations and enable waveform tracing without leaving the
    /// session API. Non-RTL backends return `None`.
    fn rtl(&self) -> Option<&AcceleratorRtl> {
        None
    }

    /// Mutable access to the underlying netlist, when this backend drives
    /// one (energy-counter resets, waveform tracing, event caps).
    fn rtl_mut(&mut self) -> Option<&mut AcceleratorRtl> {
        None
    }

    /// A cumulative [`CacheStats`](crate::cache::CacheStats) snapshot,
    /// when this backend carries a result-cache tier (a
    /// [`CachedBackend`](crate::cache::CachedBackend) directly, or a
    /// wrapper delegating to one). Uncached backends return `None`, and
    /// serving layers skip the harvest entirely.
    fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        None
    }
}

/// Checks a program against a configuration: matching shape, one LUT
/// stage per tree with the same decoder count in every stage, the
/// hardware tree depth and in-range split dimensions. Shared by the
/// session builder and the backend constructors.
///
/// # Errors
///
/// Returns [`BackendError::ProgramMismatch`] on a shape disagreement and
/// [`BackendError::MalformedProgram`] when the LUT stages do not match
/// the trees, a stage has a different decoder count, a hash tree does
/// not have the hardware's fixed depth, or a tree splits on a dimension
/// outside the subvector.
pub fn validate_program(cfg: &MacroConfig, program: &MacroProgram) -> Result<(), BackendError> {
    if program.ndec() != cfg.ndec || program.ns() != cfg.ns {
        return Err(BackendError::ProgramMismatch {
            cfg_ndec: cfg.ndec,
            cfg_ns: cfg.ns,
            program_ndec: program.ndec(),
            program_ns: program.ns(),
        });
    }
    let malformed = |reason: String| Err(BackendError::MalformedProgram { reason });
    if program.luts.len() != program.trees.len() {
        return malformed(format!(
            "{} LUT stages for {} trees",
            program.luts.len(),
            program.trees.len()
        ));
    }
    for (s, luts) in program.luts.iter().enumerate() {
        if luts.len() != cfg.ndec {
            return malformed(format!(
                "stage {s} has {} decoders, stage 0 has {}",
                luts.len(),
                cfg.ndec
            ));
        }
    }
    for (s, tree) in program.trees.iter().enumerate() {
        if tree.levels() != LEVELS {
            return malformed(format!(
                "stage {s} tree has {} levels, hardware encoder is {LEVELS}-level",
                tree.levels()
            ));
        }
        if let Some(&dim) = tree.split_dims().iter().find(|&&d| d >= SUBVECTOR_LEN) {
            return malformed(format!(
                "stage {s} tree splits on dimension {dim}, subvectors have {SUBVECTOR_LEN}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_core::macro_rtl::MacroProgram;

    #[test]
    fn program_shape_is_validated() {
        let cfg = MacroConfig::new(2, 2);
        let good = MacroProgram::random(2, 2, 1);
        assert!(validate_program(&cfg, &good).is_ok());
        let wrong = MacroProgram::random(3, 2, 1);
        assert_eq!(
            validate_program(&cfg, &wrong),
            Err(BackendError::ProgramMismatch {
                cfg_ndec: 2,
                cfg_ns: 2,
                program_ndec: 3,
                program_ns: 2,
            })
        );

        // Malformed programs of the right outer shape are rejected before
        // any backend is built, instead of panicking in the batched view
        // or failing every batch as a retryable fault.
        let mut short_luts = good.clone();
        short_luts.luts.pop();
        let mut ragged = good.clone();
        ragged.luts[1].pop();
        let mut wide_split = good.clone();
        wide_split.trees[1] =
            maddpipe_amm::bdt::BdtEncoder::from_parts(vec![0, 1, 2, SUBVECTOR_LEN], vec![0.0; 15])
                .unwrap()
                .quantize(maddpipe_amm::quant::QuantScale::UNIT);
        for (name, program) in [
            ("short LUT table", short_luts),
            ("ragged decoder counts", ragged),
            ("split dimension out of range", wide_split),
        ] {
            for result in [
                validate_program(&cfg, &program),
                BackendKind::default().build(&cfg, program).map(|_| ()),
            ] {
                assert!(
                    matches!(result, Err(BackendError::MalformedProgram { .. })),
                    "{name}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn default_kind_is_single_threaded_functional() {
        assert_eq!(
            BackendKind::default(),
            BackendKind::Functional { workers: 1 }
        );
        assert_eq!(Fidelity::default(), Fidelity::Sequential);
    }
}
