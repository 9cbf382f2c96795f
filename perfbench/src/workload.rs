//! The four workloads: inputs derived from the seed, set-up through the
//! public entry points, one call at a given team size, and the `seq`
//! reference each call is checked against.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use minipy::Value;
use omp4rs_apps::{jacobi, pi, sparselu, wordcount};
use omp4rs_pyfront::{ExecMode, Runner};

use crate::check::{Expected, Output};

/// The benchmark's workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Fig. 1 π, interpreted (Hybrid): numeric VM fast paths.
    PiInterp,
    /// Zipf word count, interpreted (Hybrid): dicts, strings, object locks.
    WordcountInterp,
    /// Native Jacobi: one reduction, one `single`, one barrier per iteration.
    JacobiNative,
    /// Native block LU as a task DAG: tasks, dependence edges, stealing.
    SparseluNative,
}

/// π intervals per call before the seed's ±5% jitter.
const PI_N: f64 = 400_000.0;
/// Word-count corpus lines (vocabulary and line length are the app defaults).
const WORDCOUNT_LINES: usize = 2_000;
/// Jacobi system size; `tol = 0` makes every call run all iterations.
const JACOBI_N: usize = 64;
const JACOBI_ITERS: usize = 1_000;
/// Sparse LU blocking: `nb × nb` blocks of `bs × bs`.
const SPARSELU_NB: usize = 16;
const SPARSELU_BS: usize = 8;

/// The directive-free π body, run through a plain `minipy::Interp` as the
/// single-threaded baseline for the interpreted call.
const PI_PLAIN: &str = r#"
def pi(n):
    w = 1.0 / n
    pi_value = 0.0
    for i in range(n):
        local = (i + 0.5) * w
        pi_value += 4.0 / (1.0 + local * local)
    return pi_value * w
"#;

/// The directive-free word-count body (see [`PI_PLAIN`]).
const WORDCOUNT_PLAIN: &str = r#"
def wordcount(lines, n):
    counts = {}
    for i in range(n):
        for w in lines[i].split():
            counts[w] = counts.get(w, 0) + 1
    return counts
"#;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PiInterp,
        Workload::WordcountInterp,
        Workload::JacobiNative,
        Workload::SparseluNative,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PiInterp => "pi_interp",
            Workload::WordcountInterp => "wordcount_interp",
            Workload::JacobiNative => "jacobi_native",
            Workload::SparseluNative => "sparselu_native",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether calls go through the pyfront runner and the minipy VM.
    pub fn interpreted(self) -> bool {
        matches!(self, Workload::PiInterp | Workload::WordcountInterp)
    }
}

/// splitmix64: spreads one seed into independent per-use values.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A problem instance, a function of the workload and the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    Pi(pi::Params),
    Wordcount(Vec<String>),
    Jacobi(jacobi::Params),
    Sparselu(sparselu::Params),
}

impl Inputs {
    /// Generate the inputs for `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let s = mix(seed, workload as u64 + 1);
        match workload {
            Workload::PiInterp => {
                // The seed moves n within ±5%: a fresh problem of the same cost.
                let jitter = (s >> 11) as f64 / (1u64 << 53) as f64 * 0.1 - 0.05;
                Inputs::Pi(pi::Params {
                    n: (PI_N * (1.0 + jitter)) as i64,
                })
            }
            Workload::WordcountInterp => Inputs::Wordcount(wordcount::corpus(&wordcount::Params {
                lines: WORDCOUNT_LINES,
                seed: s,
                ..wordcount::Params::default()
            })),
            Workload::JacobiNative => Inputs::Jacobi(jacobi::Params {
                n: JACOBI_N,
                max_iters: JACOBI_ITERS,
                tol: 0.0,
                seed: s,
            }),
            Workload::SparseluNative => Inputs::Sparselu(sparselu::Params {
                nb: SPARSELU_NB,
                bs: SPARSELU_BS,
                seed: s,
            }),
        }
    }

    /// The app's `seq` reference result for these inputs.
    pub fn expected(&self) -> Expected {
        match self {
            Inputs::Pi(p) => Expected::Scalar(pi::seq(p)),
            Inputs::Wordcount(lines) => Expected::Counts(wordcount::seq(lines)),
            Inputs::Jacobi(p) => Expected::Vector(jacobi::seq(p)),
            Inputs::Sparselu(p) => Expected::Vector(sparselu::seq(p)),
        }
    }

    /// Seconds the directive-free body takes through a plain
    /// `minipy::Interp` (interpreted workloads only).
    pub fn plain_body_seconds(&self) -> Option<f64> {
        let (src, name, args) = match self {
            Inputs::Pi(p) => (PI_PLAIN, "pi", vec![Value::Int(p.n)]),
            Inputs::Wordcount(lines) => (
                WORDCOUNT_PLAIN,
                "wordcount",
                vec![box_lines(lines), Value::Int(lines.len() as i64)],
            ),
            _ => return None,
        };
        let interp = minipy::Interp::new();
        interp.run(src).expect("plain body source loads");
        let f = interp
            .get_global(name)
            .expect("plain body defines its function");
        let start = Instant::now();
        black_box(interp.call(&f, args).expect("plain body runs"));
        Some(start.elapsed().as_secs_f64())
    }
}

fn box_lines(lines: &[String]) -> Value {
    Value::list(lines.iter().map(|l| Value::str(l.clone())).collect())
}

/// Timed phases of one [`Prepared::setup`].
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Seconds for the whole set-up.
    pub total: f64,
    /// `(span name, start, end)`: `pyfront.runner_new` and `pyfront.load`
    /// (interpreted workloads), then `setup.inputs` (input boxing, or the
    /// app's input generation for native workloads).
    pub phases: Vec<(&'static str, Instant, Instant)>,
}

impl SetupTimes {
    /// Seconds spent in the phase `name` (0 if it did not run).
    pub fn seconds(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|(n, _, _)| *n == name)
            .fold(0.0, |acc, (_, s, e)| {
                acc + e.duration_since(*s).as_secs_f64()
            })
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.phases.push((name, start, Instant::now()));
        r
    }
}

/// A workload ready for calls.
pub enum Prepared {
    Interp {
        runner: Runner,
        func: &'static str,
        /// Boxed arguments; the team size is appended per call.
        args: Vec<Value>,
    },
    Jacobi(jacobi::Params),
    Sparselu(sparselu::Params),
}

impl Prepared {
    /// Get ready for the first call. Interpreted: build the runner, load the
    /// source, box the inputs. Native: generate the app's input matrix.
    pub fn setup(inputs: &Inputs) -> (Prepared, SetupTimes) {
        let start = Instant::now();
        let mut t = SetupTimes::default();
        let interp = |src: &str, func, args: &dyn Fn() -> Vec<Value>, t: &mut SetupTimes| {
            let runner = t.time("pyfront.runner_new", || Runner::new(ExecMode::Hybrid));
            t.time("pyfront.load", || runner.run(src))
                .expect("benchmark source loads");
            let args = t.time("setup.inputs", args);
            Prepared::Interp { runner, func, args }
        };
        let prepared = match inputs {
            Inputs::Pi(p) => interp(pi::SOURCE, "pi", &|| vec![Value::Int(p.n)], &mut t),
            Inputs::Wordcount(lines) => {
                let src = wordcount::source_with_schedule("schedule(dynamic)");
                let n = lines.len() as i64;
                interp(
                    &src,
                    "wordcount",
                    &|| vec![box_lines(lines), Value::Int(n)],
                    &mut t,
                )
            }
            Inputs::Jacobi(p) => {
                t.time("setup.inputs", || {
                    black_box(omp4rs_apps::workloads::diag_dominant_system(p.n, p.seed))
                });
                Prepared::Jacobi(*p)
            }
            Inputs::Sparselu(p) => {
                t.time("setup.inputs", || black_box(sparselu::input_blocks(p)));
                Prepared::Sparselu(*p)
            }
        };
        t.total = start.elapsed().as_secs_f64();
        (prepared, t)
    }

    /// One call with a team of `threads`. An `Err` return or a panic
    /// becomes `Err` with its message.
    pub fn call(&self, threads: usize) -> Result<Output, String> {
        catch_unwind(AssertUnwindSafe(|| self.call_inner(threads))).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic".to_owned());
            Err(format!("panic: {msg}"))
        })
    }

    fn call_inner(&self, threads: usize) -> Result<Output, String> {
        match self {
            Prepared::Interp { runner, func, args } => {
                let mut args = args.clone();
                args.push(Value::Int(threads as i64));
                runner
                    .call_global(func, args)
                    .map(Output::Value)
                    .map_err(|e| e.to_string())
            }
            Prepared::Jacobi(p) => Ok(Output::Vector(jacobi::native(p, threads))),
            Prepared::Sparselu(p) => Ok(Output::Vector(sparselu::native(p, threads))),
        }
    }

    /// The runner, for interpreted workloads.
    pub fn runner(&self) -> Option<&Runner> {
        match self {
            Prepared::Interp { runner, .. } => Some(runner),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            assert_eq!(
                Inputs::generate(w, 7),
                Inputs::generate(w, 7),
                "{}",
                w.name()
            );
            assert_ne!(
                Inputs::generate(w, 7),
                Inputs::generate(w, 8),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn pi_size_stays_within_five_percent() {
        for seed in 0..200 {
            let Inputs::Pi(p) = Inputs::generate(Workload::PiInterp, seed) else {
                unreachable!()
            };
            let rel = (p.n as f64 - PI_N).abs() / PI_N;
            assert!(rel <= 0.05, "seed {seed}: n = {}", p.n);
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("pi"), None);
    }
}
