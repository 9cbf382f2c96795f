//! End-to-end checks that the embedded benchmark sources really exercise the
//! directive set the paper's Table I claims, via the dump option.

use minipy::Interp;
use omp4rs_pyfront::{install, transform_function, ExecMode};

/// Transform a source's decorated functions and return the dumped text.
fn dump_transformed(src: &str) -> String {
    let module = minipy::parse(src).expect("source parses");
    let mut out = String::new();
    for stmt in &module.body {
        if let minipy::ast::StmtKind::FuncDef(def) = &stmt.kind {
            if !def.decorators.is_empty() {
                let new_def = transform_function(def).expect("transform succeeds");
                let m = minipy::Module {
                    body: vec![minipy::ast::Stmt::synth(minipy::ast::StmtKind::FuncDef(
                        std::sync::Arc::new(new_def),
                    ))],
                };
                out.push_str(&minipy::print_module(&m));
            }
        }
    }
    out
}

#[test]
fn pi_source_generates_fig2_fig3_shapes() {
    let dumped = dump_transformed(omp4rs_apps::pi::SOURCE);
    // Fig. 2: inner parallel function + nonlocal + reduction merge under the
    // runtime mutex.
    assert!(dumped.contains("def __omp_parallel_"), "{dumped}");
    assert!(dumped.contains("nonlocal pi_value"), "{dumped}");
    assert!(dumped.contains("__omp.mutex_lock()"), "{dumped}");
    assert!(dumped.contains("__omp.mutex_unlock()"), "{dumped}");
    // Fig. 3: for_bounds / for_init / for_next driving the original range.
    assert!(dumped.contains("__omp.for_bounds"), "{dumped}");
    assert!(dumped.contains("__omp.for_init"), "{dumped}");
    assert!(dumped.contains("while __omp.for_next"), "{dumped}");
    // Chunk bounds are unpacked once into frame locals (no per-iteration
    // lock traffic on the shared bounds object).
    assert!(dumped.contains("__omp.for_chunk"), "{dumped}");
    assert!(dumped.contains("for i in range(__omp_lo_"), "{dumped}");
    // The private reduction copy is renamed with the __omp_ prefix.
    assert!(dumped.contains("__omp_pi_value_"), "{dumped}");
    assert!(dumped.contains("parallel_run"), "{dumped}");
    // The read-only capture `w` is snapshotted into a frame local at region
    // entry: the loop body reads `__omp_w_<k>`, never the shared cell `w`.
    let body_line = dumped
        .lines()
        .find(|l| l.contains("local = "))
        .unwrap_or_else(|| panic!("no loop body line in {dumped}"));
    assert!(body_line.contains("* __omp_w_"), "{body_line}\n{dumped}");
    assert!(!body_line.contains("* w"), "{body_line}\n{dumped}");
    // The generated function is unbound once the region is over (no
    // frame <-> closure cycle survives the call).
    assert!(dumped.contains("finally:"), "{dumped}");
    assert!(dumped.contains("del __omp_parallel_"), "{dumped}");
}

#[test]
fn qsort_source_uses_tasks_with_if() {
    let dumped = dump_transformed(omp4rs_apps::qsort::SOURCE);
    assert!(dumped.contains("__omp.task_submit"), "{dumped}");
    assert!(dumped.contains("__omp.task_wait()"), "{dumped}");
    assert!(dumped.contains("single_claim"), "{dumped}");
    // The if clause reaches the submit call as the deferred flag.
    assert!(dumped.contains("bool("), "{dumped}");
}

#[test]
fn jacobi_source_uses_single_and_explicit_barrier() {
    let dumped = dump_transformed(omp4rs_apps::jacobi::SOURCE);
    assert!(dumped.contains("single_claim"), "{dumped}");
    assert!(dumped.contains("__omp.barrier()"), "{dumped}");
    assert!(dumped.contains("reduce_init"), "{dumped}");
}

#[test]
fn bfs_source_spawns_task_per_move() {
    let dumped = dump_transformed(omp4rs_apps::bfs::SOURCE);
    assert!(dumped.contains("task_submit"), "{dumped}");
    assert!(dumped.contains("critical_enter"), "{dumped}");
    // firstprivate(nr, nc) becomes default parameters (creation-time capture).
    assert!(
        dumped.contains("nr=nr") || dumped.contains("nc=nc"),
        "{dumped}"
    );
}

#[test]
fn transformed_functions_have_no_remaining_directives() {
    for src in [
        omp4rs_apps::pi::SOURCE,
        omp4rs_apps::jacobi::SOURCE,
        omp4rs_apps::lu::SOURCE,
        omp4rs_apps::md::SOURCE,
        omp4rs_apps::qsort::SOURCE,
        omp4rs_apps::bfs::SOURCE,
        omp4rs_apps::fft::SOURCE,
    ] {
        let dumped = dump_transformed(src);
        assert!(
            !dumped.contains("with omp("),
            "directive survived transform:\n{dumped}"
        );
        assert!(
            !dumped.contains("@omp"),
            "decorator survived transform:\n{dumped}"
        );
    }
}

#[test]
fn api_surface_matches_paper_section_f() {
    // §III-F: import omp4py exposes the decorator and runtime API.
    let interp = Interp::new();
    install(&interp, ExecMode::Hybrid);
    interp
        .run(
            r#"
import omp4py
from omp4py import *

checks = []
checks.append(omp_get_max_threads() >= 1)
checks.append(omp_get_num_procs() >= 1)
checks.append(omp_get_wtime() >= 0.0)
omp_set_num_threads(3)
checks.append(omp_get_max_threads() == 3)
omp_set_schedule("guided", 4)
checks.append(omp_get_schedule()[0] == "guided")
ok = all(checks)
"#,
        )
        .unwrap();
    assert!(interp.get_global("ok").unwrap().truthy());
}

#[test]
fn omp4py_pure_module_forces_pure_mode() {
    let interp = Interp::new();
    install(&interp, ExecMode::Hybrid);
    interp
        .run("from omp4py.pure import *\nn = omp_get_num_procs()\n")
        .unwrap();
    assert!(interp.get_global("n").unwrap().as_int().unwrap() >= 1);
}
