//! Criterion micro-benchmark for the compiled property evaluators in
//! isolation: one `CompiledPropertySet::check_transition` pass over the
//! state vector — the deduplicated atom slots filled once from domain-index
//! masks, then either the memoised verdicts of that atom valuation or, the
//! first time the scratch sees it, every property's postfix program — what
//! the checker pays per explored transition on top of `apply` + `encode`.
//!
//! Rows, each for the 45 built-ins and built-ins + 5 custom specs (the
//! open-API overhead): `check_transition` re-evaluates one state with one
//! scratch, so it times the memo hit a search pays on almost every
//! transition; `check_transition_miss` uses a fresh scratch per pass, so it
//! times the programs plus the memo insert.  A last row times spec→program
//! compilation itself (the install-time cost).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use iotsan::properties::{EvalScratch, PropertySet, StepObservation};
use iotsan::system::InstalledSystem;
use iotsan_bench::{extended_property_set, fleet_workload};

fn bench_property_eval(c: &mut Criterion) {
    let (apps, config) = fleet_workload(8);
    let system = InstalledSystem::new(apps, config);
    let state = system.initial_state();
    let observation = StepObservation::default();

    let builtins = PropertySet::all();
    let extended = extended_property_set();

    let mut group = c.benchmark_group("property_eval");
    group.sample_size(20);

    for (label, set) in [("builtins45", &builtins), ("builtins45_plus5", &extended)] {
        let compiled = system.compile_properties(set);
        let mut monitors = vec![0u8; compiled.monitor_count()];
        let mut scratch = EvalScratch::default();
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("check_transition", label), &(), |b, ()| {
            b.iter(|| {
                out.clear();
                compiled.check_transition(
                    black_box(&state.devices),
                    black_box(state.mode),
                    black_box(&observation),
                    &mut monitors,
                    &mut scratch,
                    &mut out,
                );
                black_box(out.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("check_transition_miss", label), &(), |b, ()| {
            b.iter(|| {
                out.clear();
                compiled.check_transition(
                    black_box(&state.devices),
                    black_box(state.mode),
                    black_box(&observation),
                    &mut monitors,
                    &mut EvalScratch::default(),
                    &mut out,
                );
                black_box(out.len())
            })
        });
    }

    // Install-time compilation (selectors → slots, formulas → programs).
    group.bench_with_input(BenchmarkId::new("compile", "builtins45_plus5"), &(), |b, ()| {
        b.iter(|| black_box(system.compile_properties(&extended).atom_count()))
    });

    group.finish();
}

criterion_group!(benches, bench_property_eval);
criterion_main!(benches);
