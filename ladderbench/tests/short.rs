//! Short mode of the benchmark: every workload at tiny size. Checks that
//! the command works, that it prints exactly the metrics `BENCHMARK.json`
//! declares, and that the output checks fire on a wrong expected output.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: &[&str] = &["offline_unique", "serve_repeat", "cnn_stream", "rtl_fig6"];

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value() else {
                        panic!("object keys are strings")
                    };
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(fields),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                        .expect("ascii escape");
                                    self.i += 4;
                                    char::from_u32(u32::from_str_radix(hex, 16).expect("hex"))
                                        .expect("scalar value")
                                }
                                other => other as char,
                            });
                        }
                        _ => {
                            let start = self.i - 1;
                            let len = match c {
                                0..=0x7F => 1,
                                0xC0..=0xDF => 2,
                                0xE0..=0xEF => 3,
                                _ => 4,
                            };
                            self.i = start + len;
                            out.push_str(
                                std::str::from_utf8(&self.s[start..self.i]).expect("utf-8"),
                            );
                        }
                    }
                }
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR"))
}

fn declared() -> Json {
    let path = manifest_dir().join("..").join("BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
}

/// Runs one short workload; returns the exit status and the parsed last
/// line of standard output.
fn run(workload: &str, trace: u8, seed: u64, extra: &[&str], out: &str) -> (bool, Json) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    let output = Command::new(env!("CARGO_BIN_EXE_maddpipe-ladderbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", &trace.to_string(), "--short"])
        .arg("--out")
        .arg(&dir)
        .args(extra)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    (output.status.success(), Json::parse(last))
}

fn check_result(result: &Json, declared: &Json, section: &str) {
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let metrics = result.get("metrics");
    let names: Vec<&str> = declared
        .get(section)
        .arr()
        .iter()
        .map(|m| m.get("name").str())
        .collect();
    assert_eq!(
        metrics.keys(),
        names,
        "{section} metrics differ from BENCHMARK.json"
    );
    for m in declared.get(section).arr() {
        let printed = metrics.get(m.get("name").str());
        assert_eq!(printed.keys(), ["value", "unit"]);
        assert_eq!(printed.get("unit").str(), m.get("unit").str());
        let value = printed.get("value").num();
        assert!(value.is_finite());
        if section == "end_to_end" {
            assert!(value > 0.0, "{} reads 0", m.get("name").str());
        }
    }
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let declared = declared();
    let names: Vec<&str> = declared
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, WORKLOADS);
    for workload in WORKLOADS {
        let (ok, result) = run(workload, 0, 1, &[], "declared");
        assert!(ok, "{workload} untraced run failed");
        check_result(&result, &declared, "end_to_end");
        let (ok, result) = run(workload, 1, 1, &[], "declared");
        assert!(ok, "{workload} traced run failed");
        check_result(&result, &declared, "per_layer");
    }
}

#[test]
fn a_wrong_expected_output_fails_the_run() {
    for workload in WORKLOADS {
        let (ok, result) = run(workload, 0, 2, &["--wrong-expected"], "wrong");
        assert!(!ok, "{workload} exited 0 on a wrong expected output");
        assert_eq!(result.get("correct"), &Json::Bool(false));
        assert!(result.get("failed").num() >= 1.0);
    }
}

#[test]
fn simulated_figures_repeat_across_runs_and_seeds() {
    let sim = |seed| {
        let (ok, result) = run("rtl_fig6", 1, seed, &[], "probe");
        assert!(ok);
        let metrics = result.get("metrics");
        metrics
            .keys()
            .into_iter()
            .filter(|k| k.starts_with("sim.") && *k != "sim.events_per_s")
            .map(|k| (k.to_string(), metrics.get(k).get("value").num().to_bits()))
            .collect::<Vec<_>>()
    };
    let first = sim(3);
    assert_eq!(first.len(), 8);
    assert!(first.iter().all(|(_, bits)| f64::from_bits(*bits) > 0.0));
    assert_eq!(first, sim(4));
}
