//! Properties of the benchmark harness itself: the tail rule, the metric
//! grammar, seed determinism, the independent oracle, and agreement
//! between the metrics the command prints and `BENCHMARK.json`.

use std::collections::BTreeMap;

use lcc_core::TraditionalConvolver;
use lcc_greens::GaussianKernel;
use perfbench::inputs::{deltas, massif_composite, smooth_field};
use perfbench::metrics::{self, percentile, valid_name, Outcome, END_TO_END, PER_LAYER};
use perfbench::oracle::{checked_dense_reference, direct_periodic_sum};
use perfbench::{workloads, Args};

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let v: Vec<f64> = (0..999).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.99), None);
    let v: Vec<f64> = (0..1000).map(f64::from).collect();
    let p99 = percentile(&v, 0.99).expect("1000 samples hold a p99");
    assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    let v: Vec<f64> = (0..99).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.90), None);
    let v: Vec<f64> = (0..100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.90), Some(89.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(metrics::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(metrics::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(metrics::median(&[]), 0.0);
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_and_units_follow_the_grammar() {
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {}", d.name);
        assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
    }
    for bad in ["", ".p50", "_x", "a b", "a/b", "ms%", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} must be refused");
    }
    assert!(valid_name("core.compress_ms.p50"));
    assert!(valid_name("9-x_y.z"));
    let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names must be unique");
}

#[test]
fn generated_inputs_depend_only_on_the_seed() {
    assert_eq!(smooth_field(16, 8, 7), smooth_field(16, 8, 7));
    assert_ne!(smooth_field(16, 8, 7), smooth_field(16, 8, 8));
    assert_eq!(deltas(32, 3, 11), deltas(32, 3, 11));
    assert_ne!(deltas(32, 3, 11), deltas(32, 3, 12));
    let phases = |seed| {
        let m = massif_composite(16, seed);
        let mut v = Vec::new();
        for x in 0..16 {
            for y in 0..16 {
                for z in 0..16 {
                    v.push(m.phase(x, y, z));
                }
            }
        }
        v
    };
    assert_eq!(phases(3), phases(3));
    let (a, b) = (phases(3), phases(4));
    assert_ne!(a, b);
    // A periodic shift keeps the composite's volume fraction.
    let ones = |v: &[u8]| v.iter().filter(|&&p| p == 1).count();
    assert_eq!(ones(&a), ones(&b));
}

#[test]
fn direct_spatial_sum_agrees_with_the_dense_convolver_at_n16() {
    let n = 16;
    let input = smooth_field(n, 6, 5);
    let kernel = GaussianKernel::new(n, 1.5);
    let dense = TraditionalConvolver::new(n).convolve(&input, &kernel);
    let spatial = kernel.spatial();
    for p in [[0, 0, 0], [3, 9, 15], [8, 8, 8], [15, 1, 7], [12, 0, 4]] {
        let direct = direct_periodic_sum(&input, &spatial, p);
        let got = dense[(p[0], p[1], p[2])];
        assert!(
            (direct - got).abs() < 1e-9 * direct.abs().max(1.0),
            "{p:?}: {direct} vs {got}"
        );
    }
    assert!(checked_dense_reference(&input, &kernel, 16, 9).1.is_ok());
}

#[test]
fn a_shifted_delta_response_fails_the_oracle_check() {
    // The oracle check must be able to fail: a result moved by one cell
    // is not the convolution of its input.
    let n = 16;
    let mut input = lcc_grid::Grid3::zeros((n, n, n));
    input[(2, 3, 4)] = 1.0;
    let kernel = GaussianKernel::new(n, 1.0);
    let spatial = kernel.spatial();
    let dense = TraditionalConvolver::new(n).convolve(&input, &kernel);
    let peak = [(2 + n / 2) % n, (3 + n / 2) % n, (4 + n / 2) % n];
    let right = direct_periodic_sum(&input, &spatial, peak);
    assert!((right - dense[(peak[0], peak[1], peak[2])]).abs() < 1e-12);
    let wrong = direct_periodic_sum(&input, &spatial, [peak[0] + 1, peak[1], peak[2]]);
    assert!((wrong - dense[(peak[0], peak[1], peak[2])]).abs() > 0.1);
}

/// A JSON value, enough of it to read `BENCHMARK.json`.
#[derive(Debug)]
enum Json {
    Str(String),
    Num,
    Bool,
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

fn parse(s: &[u8], i: &mut usize) -> Json {
    let ws = |i: &mut usize| {
        while s[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    ws(i);
    match s[*i] {
        b'{' => {
            *i += 1;
            let mut m = BTreeMap::new();
            loop {
                ws(i);
                if s[*i] == b'}' {
                    *i += 1;
                    return Json::Obj(m);
                }
                let Json::Str(k) = parse(s, i) else {
                    panic!("key")
                };
                ws(i);
                assert_eq!(s[*i], b':');
                *i += 1;
                m.insert(k, parse(s, i));
                ws(i);
                if s[*i] == b',' {
                    *i += 1;
                }
            }
        }
        b'[' => {
            *i += 1;
            let mut v = Vec::new();
            loop {
                ws(i);
                if s[*i] == b']' {
                    *i += 1;
                    return Json::Arr(v);
                }
                v.push(parse(s, i));
                ws(i);
                if s[*i] == b',' {
                    *i += 1;
                }
            }
        }
        b'"' => {
            let start = *i + 1;
            *i = start;
            while s[*i] != b'"' {
                *i += 1;
            }
            *i += 1;
            Json::Str(String::from_utf8(s[start..*i - 1].to_vec()).expect("utf-8"))
        }
        b't' | b'f' => {
            *i += if s[*i] == b't' { 4 } else { 5 };
            Json::Bool
        }
        _ => {
            while matches!(s[*i], b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E') {
                *i += 1;
            }
            Json::Num
        }
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let Json::Obj(top) = parse(text.as_bytes(), &mut 0) else {
        panic!("top level")
    };
    let Some(Json::Arr(items)) = top.get(section) else {
        panic!("no {section}")
    };
    items
        .iter()
        .map(|item| {
            let Json::Obj(m) = item else {
                panic!("metric entry")
            };
            let get = |k: &str| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{k}: {other:?}"),
            };
            (get("name"), get("unit"))
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let mut want = declared(section);
        want.sort();
        let mut got: Vec<(String, String)> = metrics::defs(trace)
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        got.sort();
        assert_eq!(got, want, "{section} differs from BENCHMARK.json");

        // The result line carries exactly the declared set, and refuses
        // any other.
        let mut out = Outcome::new();
        out.attempted = 1;
        for d in metrics::defs(trace) {
            out.set(d.name, 1.5);
        }
        let line = out
            .render(metrics::defs(trace))
            .expect("complete set renders");
        for (name, unit) in &want {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        out.set("not.declared", 1.0);
        assert!(out.render(metrics::defs(trace)).is_err());
    }
}

#[test]
fn result_line_refuses_non_finite_values_and_empty_runs() {
    let mut out = Outcome::new();
    for d in END_TO_END {
        out.set(d.name, 1.0);
    }
    assert!(out.render(END_TO_END).is_err(), "no attempted operation");
    out.attempted = 3;
    assert!(out.render(END_TO_END).is_ok());
    out.set("op_ms.mean", f64::NAN);
    assert!(out.render(END_TO_END).is_err());
}

#[test]
fn arguments_parse_and_unknown_workloads_are_refused() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(&argv(
        "--workload cluster_p2 --seed 7 --seconds 3 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("cluster_p2", 7, 3.0, true)
    );
    assert!(Args::parse(&argv("--workload nope --seed 1")).is_err());
    assert!(Args::parse(&argv("--workload convolve_n64 --trace 2")).is_err());
    assert!(Args::parse(&argv("--seed 1")).is_err());
    assert_eq!(workloads::NAMES.len(), 4);
}
