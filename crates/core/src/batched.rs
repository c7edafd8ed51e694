//! Batched evaluation of a [`MacroProgram`] — the fast path behind
//! [`MacroProgram::reference_output_batch`].
//!
//! [`MacroProgram::reference_output`] walks one token at a time: a 4-level
//! BDT per stage, then one LUT byte per decoder chain, accumulated with
//! wrapping 16-bit adds. That scalar walk is the executable spec — this
//! module never changes its semantics, it only lays the program out and
//! orders the work for a CPU:
//!
//! * [`BatchedProgram`] is a struct-of-arrays view of the program: per
//!   stage, the split dimensions and heap-ordered thresholds of the tree
//!   sit in flat arrays, and the LUT bytes are widened to `i16` and
//!   transposed **code-major** — one contiguous `ndec`-wide row per leaf
//!   code — so a token's stage contributes one dense row, not `ndec`
//!   scattered bytes.
//! * The kernel runs on blocks of 64 tokens, in three phases:
//!   1. **Gather.** Read each token once and copy the split byte of every
//!      (stage, level) into a stage × level × 64-lane `i8` scratch.
//!   2. **Encode.** For each stage and level, compare all 64 lanes
//!      against every threshold of that level, keeping a lane's bit only
//!      where the threshold is its own node
//!      (`u8::from(path == j) & u8::from(x >= thr)`), then
//!      `path = 2*path + bit`. The loops are branch-free and fixed-width,
//!      so the autovectoriser lifts them to SIMD.
//!   3. **Accumulate.** For each token, sum the code-major LUT rows of all
//!      stages in a register-resident `[i16; 16]` chunk with wrapping
//!      adds, and store each chunk once.
//!
//! The encode evaluates every comparator of a level, as the silicon's
//! DLC tournament would if energy did not matter. The silicon fires only
//! the four comparators on the decision path to save energy; a CPU pays
//! instead for the chain of dependent loads that picking them takes, so
//! it is cheaper to compare a whole level for 64 tokens at once.
//!
//! The kernel is pinned bit-identical to the scalar spec by proptest
//! (`tests/backend_equivalence.rs`), including wrapping at the `i16`
//! boundaries.

use crate::config::{K, SUBVECTOR_LEN};
use crate::macro_rtl::MacroProgram;

/// Tokens per block: the lane count of the encode phase.
const BLOCK: usize = 64;
/// Decoder chains per register-resident accumulator chunk.
const CHUNK: usize = 16;

/// One pipeline stage in struct-of-arrays form.
#[derive(Debug, Clone)]
struct StageSoa {
    /// One split dimension per tree level.
    split_dims: Vec<usize>,
    /// Heap-ordered thresholds (node 0 = root, children `2i+1`/`2i+2`).
    thresholds: Vec<i8>,
    /// LUT bytes widened to `i16` and transposed code-major: row `k`
    /// (`luts_code_major[k*ndec..]`) holds every decoder's entry for leaf
    /// `k`, so each stage adds one contiguous row to a token's sum.
    luts_code_major: Vec<i16>,
}

/// Struct-of-arrays view of a [`MacroProgram`], precomputed once and
/// reused across batches.
///
/// Build it with [`MacroProgram::batched`] (or [`BatchedProgram::new`]);
/// evaluate with [`BatchedProgram::evaluate`] or, into a caller-provided
/// buffer, [`BatchedProgram::evaluate_into`].
#[derive(Debug, Clone)]
pub struct BatchedProgram {
    ns: usize,
    ndec: usize,
    stages: Vec<StageSoa>,
}

impl BatchedProgram {
    /// Builds the struct-of-arrays view of `program`.
    ///
    /// # Panics
    ///
    /// Panics if the program has fewer LUT stages than trees or a stage
    /// with more decoder chains than the first. The runtime's
    /// `validate_program` rejects both shapes before a backend is built.
    pub fn new(program: &MacroProgram) -> BatchedProgram {
        let ns = program.ns();
        let ndec = program.ndec();
        let stages = (0..ns)
            .map(|s| {
                let tree = &program.trees[s];
                let mut luts_code_major = vec![0i16; K * ndec];
                for (j, entries) in program.luts[s].iter().enumerate() {
                    for (k, &e) in entries.iter().enumerate() {
                        luts_code_major[k * ndec + j] = e as i16;
                    }
                }
                StageSoa {
                    split_dims: tree.split_dims().to_vec(),
                    thresholds: tree.thresholds().to_vec(),
                    luts_code_major,
                }
            })
            .collect();
        BatchedProgram { ns, ndec, stages }
    }

    /// Pipeline stages of the underlying program.
    pub fn ns(&self) -> usize {
        self.ns
    }

    /// Decoder chains per stage.
    pub fn ndec(&self) -> usize {
        self.ndec
    }

    /// Evaluates `tokens`, one output vector per token. Matches
    /// `tokens.iter().map(|t| program.reference_output(t))` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the scalar spec: a token that
    /// does not carry one subvector per stage, or a malformed program
    /// whose tree walk selects a leaf outside the 16-entry LUT.
    pub fn evaluate<T: AsRef<[[i8; SUBVECTOR_LEN]]>>(&self, tokens: &[T]) -> Vec<Vec<i16>> {
        let ndec = self.ndec;
        let mut flat = vec![0i16; tokens.len() * ndec];
        self.evaluate_into(tokens, &mut flat);
        // Indexing, not `chunks(ndec)`: decoder-less programs still give
        // one (empty) output vector per token, like the scalar spec.
        (0..tokens.len())
            .map(|i| flat[i * ndec..(i + 1) * ndec].to_vec())
            .collect()
    }

    /// Evaluates `tokens` into a caller-provided token-major buffer
    /// (`out[i * ndec + j]` = token `i`, decoder `j`). Only a few
    /// block-sized scratch buffers are allocated per call, none per token.
    ///
    /// This is the block kernel of the [module docs](self): for each
    /// block of 64 tokens it gathers the split bytes lane by lane,
    /// encodes each tree level for the whole block at once (every
    /// comparator of the level, selected per lane by mask), then sums
    /// every stage's LUT row for a token in a register-resident `[i16;
    /// 16]` chunk and stores it once. Trees of any depth evaluate exactly
    /// where the scalar spec does; a walk past the 16-entry LUT panics.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != tokens.len() * ndec`, plus the conditions
    /// of [`BatchedProgram::evaluate`].
    pub fn evaluate_into<T: AsRef<[[i8; SUBVECTOR_LEN]]>>(&self, tokens: &[T], out: &mut [i16]) {
        assert_eq!(
            out.len(),
            tokens.len() * self.ndec,
            "output buffer must hold ndec values per token"
        );
        let ndec = self.ndec;
        // Where each (stage, level) split byte sits in a token's flat
        // bytes. A split dimension past the subvector maps past every
        // token, so the gather panics on it as the scalar spec's index does.
        let offsets: Vec<usize> = (self.stages.iter().enumerate())
            .flat_map(|(s, stage)| {
                stage.split_dims.iter().map(move |&dim| {
                    if dim < SUBVECTOR_LEN {
                        s * SUBVECTOR_LEN + dim
                    } else {
                        usize::MAX
                    }
                })
            })
            .collect();
        // Block scratch, reused by every block: split bytes laid out
        // stage × level × lane, then one leaf code per stage × lane.
        let mut split_bytes = vec![0i8; offsets.len() * BLOCK];
        let mut codes = vec![0u8; self.ns * BLOCK];
        for (b, block) in tokens.chunks(BLOCK).enumerate() {
            self.gather(block, &offsets, &mut split_bytes);
            self.encode(&split_bytes, &mut codes);
            let out_block = &mut out[b * BLOCK * ndec..(b * BLOCK + block.len()) * ndec];
            self.accumulate(&codes, out_block);
        }
    }

    /// Phase 1: reads each token once and copies its split byte of every
    /// (stage, level) into lane `i` of that level's row.
    fn gather<T: AsRef<[[i8; SUBVECTOR_LEN]]>>(
        &self,
        block: &[T],
        offsets: &[usize],
        split_bytes: &mut [i8],
    ) {
        for (lane, token) in block.iter().enumerate() {
            let token = token.as_ref();
            assert_eq!(token.len(), self.ns, "one subvector per stage");
            let bytes = token.as_flattened();
            for (row, &offset) in split_bytes.chunks_exact_mut(BLOCK).zip(offsets) {
                row[lane] = bytes[offset];
            }
        }
    }

    /// Phase 2: walks every tree one level at a time for all [`BLOCK`]
    /// lanes. Each lane's comparator is picked by mask, not by a load
    /// indexed with its path, so the loops are branch-free and fixed
    /// width. A path that leaves the LUT saturates at `K`; its row slice
    /// then panics in [`BatchedProgram::sum_rows`], where the scalar
    /// spec's LUT index would.
    fn encode(&self, split_bytes: &[i8], codes: &mut [u8]) {
        let mut rows = split_bytes.chunks_exact(BLOCK);
        for (stage, code) in self.stages.iter().zip(codes.chunks_exact_mut(BLOCK)) {
            let mut path = [0u8; BLOCK];
            for level in 0..stage.split_dims.len() {
                let x: &[i8; BLOCK] = (rows.next())
                    .and_then(|row| row.try_into().ok())
                    .expect("the gather wrote one BLOCK-wide row per tree level");
                // Level `level` holds nodes `2^level - 1 ..`; a live path
                // is below K, so at most K of them can be selected.
                let first = (1usize << level) - 1;
                let width = (1usize << level).min(K);
                let mut bit = [0u8; BLOCK];
                for (j, &thr) in (0u8..).zip(&stage.thresholds[first..first + width]) {
                    for ((b, &p), &v) in bit.iter_mut().zip(&path).zip(x) {
                        *b |= u8::from(p == j) & u8::from(v >= thr);
                    }
                }
                for (p, &b) in path.iter_mut().zip(&bit) {
                    *p = (2 * *p + b).min(K as u8);
                }
            }
            code.copy_from_slice(&path);
        }
    }

    /// Phase 3: for each token, sums the code-major LUT rows of all
    /// stages one [`CHUNK`] of decoders at a time and stores each chunk
    /// once.
    fn accumulate(&self, codes: &[u8], out_block: &mut [i16]) {
        for (lane, slot) in out_block.chunks_exact_mut(self.ndec.max(1)).enumerate() {
            for (c, chunk) in slot.chunks_mut(CHUNK).enumerate() {
                let width = chunk.len();
                // Full chunks pass a constant width, so the inlined adds
                // unroll into whole SIMD registers.
                let acc = if width == CHUNK {
                    self.sum_rows(codes, lane, c * CHUNK, CHUNK)
                } else {
                    self.sum_rows(codes, lane, c * CHUNK, width)
                };
                chunk.copy_from_slice(&acc[..width]);
            }
        }
    }

    /// Wrapping sum of decoders `first..first + width` of every stage's
    /// LUT row selected for `lane`, in a register-resident accumulator.
    #[inline(always)]
    fn sum_rows(&self, codes: &[u8], lane: usize, first: usize, width: usize) -> [i16; CHUNK] {
        let mut acc = [0i16; CHUNK];
        for (stage, code) in self.stages.iter().zip(codes.chunks_exact(BLOCK)) {
            let start = usize::from(code[lane]) * self.ndec + first;
            // A code of K or more panics on this slice, like the scalar
            // spec's LUT index does.
            let row = &stage.luts_code_major[start..start + width];
            for (a, &v) in acc.iter_mut().zip(row) {
                *a = a.wrapping_add(v);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tokens(ns: usize, count: usize, seed: u64) -> Vec<Vec<[i8; SUBVECTOR_LEN]>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                (0..ns)
                    .map(|_| {
                        let mut x = [0i8; SUBVECTOR_LEN];
                        for v in x.iter_mut() {
                            *v = rng.gen_range(-128i32..=127) as i8;
                        }
                        x
                    })
                    .collect()
            })
            .collect()
    }

    fn scalar_golden(program: &MacroProgram, tokens: &[Vec<[i8; SUBVECTOR_LEN]>]) -> Vec<Vec<i16>> {
        tokens.iter().map(|t| program.reference_output(t)).collect()
    }

    #[test]
    fn kernel_matches_the_scalar_spec_across_batch_sizes() {
        let program = MacroProgram::random(5, 3, 11);
        let view = program.batched();
        for count in [1usize, 2, 63, 64, 65, 127, 128, 130] {
            let tokens = random_tokens(3, count, count as u64);
            let golden = scalar_golden(&program, &tokens);
            assert_eq!(view.evaluate(&tokens), golden, "{count} tokens");
        }
    }

    #[test]
    fn empty_batch_evaluates_to_no_outputs() {
        let program = MacroProgram::random(2, 2, 3);
        let view = program.batched();
        let empty: Vec<Vec<[i8; SUBVECTOR_LEN]>> = Vec::new();
        assert!(view.evaluate(&empty).is_empty());
    }

    #[test]
    fn wrapping_at_i16_extremes_is_bit_identical() {
        // Every LUT entry of decoder 0 holds -128 and of decoder 1 holds
        // +127, so whatever leaf each token walks to, 300 stages
        // accumulate -38400 / +38100 — both wrap past the i16 extremes.
        let ns = 300;
        let tree = maddpipe_amm::bdt::BdtEncoder::from_parts(vec![0, 1, 2, 3], vec![0.0; 15])
            .unwrap()
            .quantize(maddpipe_amm::quant::QuantScale::UNIT);
        let program = MacroProgram {
            trees: vec![tree; ns],
            luts: vec![vec![[-128; K], [127; K]]; ns],
        };
        let tokens = random_tokens(ns, 70, 9);
        let golden = scalar_golden(&program, &tokens);
        assert_eq!(golden[0][0], (-128i32 * ns as i32) as i16);
        assert_eq!(golden[0][1], (127i32 * ns as i32) as i16);
        assert_eq!(program.batched().evaluate(&tokens), golden);
    }

    #[test]
    fn shallow_and_deep_trees_agree_with_scalar() {
        // The batched walk must not assume 4 levels: shallower trees are
        // legal for hand-built programs (deeper ones overrun the 16-entry
        // LUT; that is the panic test below).
        for levels in [1usize, 2, 3] {
            let tree = maddpipe_amm::bdt::BdtEncoder::from_parts(
                (0..levels).map(|l| l % SUBVECTOR_LEN).collect(),
                vec![0.0; (1 << levels) - 1],
            )
            .unwrap()
            .quantize(maddpipe_amm::quant::QuantScale::UNIT);
            let mut lut = [0i8; K];
            for (k, e) in lut.iter_mut().enumerate() {
                *e = (k as i8).wrapping_mul(17);
            }
            let program = MacroProgram {
                trees: vec![tree],
                luts: vec![vec![lut; 3]],
            };
            let tokens = random_tokens(1, 67, levels as u64);
            let golden = scalar_golden(&program, &tokens);
            assert_eq!(
                program.batched().evaluate(&tokens),
                golden,
                "{levels} levels"
            );
        }
    }

    #[test]
    fn out_of_lut_leaf_panics_like_the_scalar_spec() {
        // A 5-level tree reaches leaf 31 — off the end of the 16-entry
        // LUT. The scalar spec panics on the LUT index; the batched
        // kernel must panic too, not return garbage.
        let tree = maddpipe_amm::bdt::BdtEncoder::from_parts(vec![0; 5], vec![-128.0; 31])
            .unwrap()
            .quantize(maddpipe_amm::quant::QuantScale::UNIT);
        let program = MacroProgram {
            trees: vec![tree],
            luts: vec![vec![[0i8; K]]],
        };
        let tokens = random_tokens(1, 3, 1);
        assert!(std::panic::catch_unwind(|| program.reference_output(&tokens[0])).is_err());
        let view = program.batched();
        assert!(
            std::panic::catch_unwind(move || view.evaluate(&tokens)).is_err(),
            "the kernel must reject leaves beyond the LUT"
        );
    }

    #[test]
    fn split_dims_past_the_subvector_panic_like_the_scalar_spec() {
        // The gather reads a token's bytes flat; a split dimension of 8
        // in the first stage must still panic, not read the second
        // stage's first byte.
        let tree = |dim| {
            maddpipe_amm::bdt::BdtEncoder::from_parts(vec![dim], vec![0.0])
                .unwrap()
                .quantize(maddpipe_amm::quant::QuantScale::UNIT)
        };
        let program = MacroProgram {
            trees: vec![tree(SUBVECTOR_LEN), tree(0)],
            luts: vec![vec![[0i8; K]]; 2],
        };
        let tokens = random_tokens(2, 3, 2);
        assert!(std::panic::catch_unwind(|| program.reference_output(&tokens[0])).is_err());
        let view = program.batched();
        assert!(std::panic::catch_unwind(move || view.evaluate(&tokens)).is_err());
    }

    #[test]
    fn evaluate_into_fills_a_token_major_buffer() {
        let program = MacroProgram::random(4, 2, 21);
        let tokens = random_tokens(2, 66, 8);
        let golden = scalar_golden(&program, &tokens);
        let view = program.batched();
        let mut flat = vec![0i16; tokens.len() * view.ndec()];
        view.evaluate_into(&tokens, &mut flat);
        for (i, g) in golden.iter().enumerate() {
            assert_eq!(&flat[i * 4..(i + 1) * 4], g.as_slice(), "token {i}");
        }
    }

    /// A hand-built program: stage `s` has a `depths[s]`-level tree whose
    /// thresholds come from `threshold(level, rng)`, plus `ndec` random
    /// LUT columns.
    fn program_with_depths(
        depths: &[usize],
        ndec: usize,
        seed: u64,
        threshold: impl Fn(usize, &mut StdRng) -> f32,
    ) -> MacroProgram {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = depths
            .iter()
            .map(|&levels| {
                let dims = (0..levels)
                    .map(|_| rng.gen_range(0..SUBVECTOR_LEN))
                    .collect();
                let thresholds = (0..levels)
                    .flat_map(|level| vec![level; 1 << level])
                    .map(|level| threshold(level, &mut rng))
                    .collect();
                maddpipe_amm::bdt::BdtEncoder::from_parts(dims, thresholds)
                    .unwrap()
                    .quantize(maddpipe_amm::quant::QuantScale::UNIT)
            })
            .collect();
        let luts = depths
            .iter()
            .map(|_| {
                (0..ndec)
                    .map(|_| std::array::from_fn(|_| rng.gen_range(-128i32..=127) as i8))
                    .collect()
            })
            .collect();
        MacroProgram { trees, luts }
    }

    fn random_threshold(_level: usize, rng: &mut StdRng) -> f32 {
        rng.gen_range(-127i32..=127) as f32
    }

    #[test]
    fn mixed_depths_and_decoder_widths_agree_with_scalar() {
        // Every tree depth 1..=4 in one program; decoder counts on both
        // sides of the 16-wide accumulator chunk; token counts on both
        // sides of the 64-lane block.
        let depths = [1, 2, 3, 4, 4, 3, 2, 1, 4];
        for ndec in [0usize, 1, 5, 16, 17, 33] {
            let program = program_with_depths(&depths, ndec, ndec as u64, random_threshold);
            let view = program.batched();
            for count in [1usize, 63, 64, 65, 200, 4000] {
                let tokens = random_tokens(depths.len(), count, count as u64);
                let golden = scalar_golden(&program, &tokens);
                assert_eq!(
                    view.evaluate(&tokens),
                    golden,
                    "ndec {ndec}, {count} tokens"
                );
            }
        }
    }

    #[test]
    fn split_bytes_equal_to_their_thresholds_go_right() {
        // Each token walks every tree sitting exactly on a comparator's
        // threshold (a tie, `>=` goes right) or one below it (left), so a
        // kernel comparing with `>` or off by one disagrees somewhere.
        let depths = [4usize; 6];
        let program = program_with_depths(&depths, 3, 5, random_threshold);
        let mut rng = StdRng::seed_from_u64(6);
        let tokens: Vec<Vec<[i8; SUBVECTOR_LEN]>> = (0..130)
            .map(|_| {
                (program.trees.iter())
                    .map(|tree| {
                        let mut sub = [0i8; SUBVECTOR_LEN];
                        let mut node = 0;
                        for &dim in tree.split_dims() {
                            let thr = tree.thresholds()[node];
                            let right = rng.gen_range(0..2) == 1;
                            sub[dim] = if right { thr } else { thr - 1 };
                            node = 2 * node + 1 + usize::from(right);
                        }
                        sub
                    })
                    .collect()
            })
            .collect();
        // Repeated split dims overwrite an earlier level's byte, so only
        // trust the scalar spec, not the intended walk.
        assert_eq!(
            program.batched().evaluate(&tokens),
            scalar_golden(&program, &tokens)
        );
    }

    #[test]
    fn i8_extremes_agree_with_scalar() {
        // Inputs of only -128 and 127 against thresholds at the
        // quantiser's extremes ±127 and anywhere between: a kernel that
        // compared unsigned or saturated its inputs would branch wrongly.
        let extreme = |_: usize, rng: &mut StdRng| match rng.gen_range(0..3) {
            0 => -127.0,
            1 => 127.0,
            _ => rng.gen_range(-127i32..=127) as f32,
        };
        let program = program_with_depths(&[4; 5], 16, 8, extreme);
        let mut rng = StdRng::seed_from_u64(9);
        let tokens: Vec<Vec<[i8; SUBVECTOR_LEN]>> = (0..100)
            .map(|_| {
                (0..5)
                    .map(|_| std::array::from_fn(|_| [-128i8, 127][rng.gen_range(0..2usize)]))
                    .collect()
            })
            .collect();
        assert_eq!(
            program.batched().evaluate(&tokens),
            scalar_golden(&program, &tokens)
        );
    }

    #[test]
    fn deep_trees_evaluate_exactly_or_panic_like_the_scalar_spec() {
        // Trees deeper than 4 levels stay inside the 16-entry LUT only
        // for tokens that go left on every extra top level. High top
        // thresholds make that common but not universal, so each depth
        // sees both outcomes: the kernel must return the spec's output or
        // panic where the spec panics, token by token.
        for levels in 1..=10usize {
            let extra = levels.saturating_sub(4);
            let top_heavy = |level: usize, rng: &mut StdRng| {
                if level < extra {
                    100.0
                } else {
                    random_threshold(level, rng)
                }
            };
            let program = program_with_depths(&[levels, 4], 5, levels as u64, top_heavy);
            let view = program.batched();
            let tokens = random_tokens(2, 150, levels as u64);
            let mut in_range = Vec::new();
            for token in &tokens {
                let spec = std::panic::catch_unwind(|| program.reference_output(token));
                let got = std::panic::catch_unwind(|| view.evaluate(std::slice::from_ref(token)));
                match spec {
                    Ok(out) => {
                        assert_eq!(got.unwrap(), vec![out], "{levels} levels");
                        in_range.push(token.clone());
                    }
                    Err(_) => assert!(got.is_err(), "{levels} levels: kernel must panic"),
                }
            }
            assert!(!in_range.is_empty(), "{levels} levels: no token in range");
            assert_eq!(
                levels <= 4,
                in_range.len() == tokens.len(),
                "{levels} levels"
            );
            // The in-range tokens together, across several blocks.
            let golden = scalar_golden(&program, &in_range);
            assert_eq!(view.evaluate(&in_range), golden, "{levels} levels");
        }
    }

    #[test]
    #[ignore = "manual throughput probe: cargo test --release -p maddpipe-core batched::tests::throughput_probe -- --ignored --nocapture"]
    fn throughput_probe() {
        let program = MacroProgram::random(16, 32, 7);
        let tokens = random_tokens(32, 4096, 11);
        let view = program.batched();
        let mut flat = vec![0i16; tokens.len() * view.ndec()];
        let rate = |name: &str, f: &mut dyn FnMut()| {
            let mut best = f64::MAX;
            for _ in 0..7 {
                let t0 = std::time::Instant::now();
                f();
                best = best.min(t0.elapsed().as_secs_f64());
            }
            println!("{name:>14}: {:>12.0} tokens/s", tokens.len() as f64 / best);
        };
        rate("scalar", &mut || {
            std::hint::black_box(scalar_golden(&program, &tokens));
        });
        rate("evaluate", &mut || {
            std::hint::black_box(view.evaluate(&tokens));
        });
        rate("evaluate_into", &mut || {
            view.evaluate_into(&tokens, &mut flat);
            std::hint::black_box(&flat);
        });
    }
}
