//! The benchmark's own checks: seeded inputs repeat byte for byte, the
//! metric catalog is well formed and matches `BENCHMARK.json`, and a
//! minimum-size run of every workload passes every check and reports every
//! metric.

use lis_perfbench::serve::{plans, request_line, Plan};
use lis_perfbench::tracer::Tracer;
use lis_perfbench::{end_to_end, measure, per_layer, profile, MetricDef, Size, WORKLOADS};
use lis_serve::json::{parse, Value};

fn requests(plans: &[Plan], n: usize) -> Vec<String> {
    plans
        .iter()
        .flat_map(|p| p.sequence(n).into_iter().map(|(prog, _)| request_line(0, &p.programs[prog])))
        .collect()
}

#[test]
fn same_seed_gives_identical_programs_and_requests() {
    let a = plans(7, 3, &mut Tracer::off());
    let b = plans(7, 3, &mut Tracer::off());
    for (pa, pb) in a.iter().zip(&b) {
        for (x, y) in pa.programs.iter().zip(&pb.programs) {
            assert_eq!(x.src, y.src);
            assert_eq!(x.expected, y.expected);
        }
        assert_eq!(pa.sequence(12), pb.sequence(12));
    }
    assert_eq!(requests(&a, 12), requests(&b, 12));
    let c = plans(8, 3, &mut Tracer::off());
    assert_ne!(requests(&a, 12), requests(&c, 12), "another seed gives other requests");
    let p = lis_perfbench::gen::program("arm", 3, 500, &mut Tracer::off());
    let q = lis_perfbench::gen::program("arm", 3, 500, &mut Tracer::off());
    assert_eq!(p.src, q.src);
}

#[test]
fn sequences_repeat_only_programs_already_sent() {
    let p = &plans(3, 4, &mut Tracer::off())[0];
    let seq = p.sequence(16);
    assert_eq!(seq.len(), 16);
    let mut sent = 0;
    for (prog, cold) in seq {
        if cold {
            assert_eq!(prog, sent, "cold requests send new programs in order");
            sent += 1;
        } else {
            assert!(prog < sent, "warm requests repeat a program already sent");
        }
    }
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut names = std::collections::BTreeSet::new();
    for m in end_to_end().iter().chain(&per_layer()) {
        assert!(valid_name(&m.name), "metric name {}", m.name);
        assert!(names.insert(m.name.clone()), "metric {} is listed once", m.name);
        assert!(
            m.unit.len() <= 16
                && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {}",
            m.unit
        );
        assert!(m.better == "higher" || m.better == "lower");
    }
    assert!(per_layer().len() <= 128);
}

/// (name, unit, better) of every metric of a `BENCHMARK.json` list.
fn listed(v: &Value, key: &str) -> Vec<(String, String, String)> {
    let field =
        |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
    v.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn triples(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
    defs.into_iter().map(|m| (m.name, m.unit.to_string(), m.better.to_string())).collect()
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(listed(&v, "end_to_end"), triples(end_to_end()));
    assert_eq!(listed(&v, "per_layer"), triples(per_layer()));
}

#[test]
fn minimum_runs_pass_every_check() {
    for w in WORKLOADS {
        let r = measure(w, 5, 0.0, Size::Min).expect("known workload");
        assert!(r.checks.attempted > 0, "{w}: operations ran");
        assert_eq!(r.checks.failed, 0, "{w}: {:?}", r.checks.first);
        for m in end_to_end() {
            let (v, unit) = r.metrics[&m.name];
            assert_eq!(unit, m.unit);
            assert!(v.is_finite() && v != 0.0, "{w}: {} = {v}", m.name);
        }
        assert_eq!(r.digests.len(), 1);
    }
}

#[test]
fn digests_repeat_exactly() {
    for w in WORKLOADS {
        let a = measure(w, 9, 0.0, Size::Min).expect("known workload");
        let b = measure(w, 9, 0.0, Size::Min).expect("known workload");
        assert_eq!(a.digests, b.digests, "{w}");
    }
}

#[test]
fn traced_minimum_run_reports_every_layer_metric() {
    let r = profile("timing", 5, Size::Min).expect("known workload");
    assert_eq!(r.checks.failed, 0, "{:?}", r.checks.first);
    for m in per_layer() {
        let (v, unit) = r.metrics.get(&m.name).unwrap_or_else(|| panic!("{} reported", m.name));
        assert_eq!(*unit, m.unit);
        assert!(v.is_finite(), "{} = {v}", m.name);
    }
    assert!(profile("nonesuch", 1, Size::Min).is_err());
}
