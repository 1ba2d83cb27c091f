//! `serve_warm`: the resident daemon. Set-up starts `spo serve --workers 1
//! --jobs 1` with all three implementations loaded and warms every
//! pairing. Each op sends one `diff` request per pairing over the Unix
//! socket, plus 8 seeded `query` requests. The
//! op's time is the sum of the client-observed round trips; responses are
//! checked against the in-process CLI composition after the clock stops.

use crate::common;
use crate::probe::{ms_since, Spans};
use crate::{Ctx, Op, Workload};
use security_policy_oracle::compare_implementations_with;
use spo_corpus::Lib;
use spo_engine::AnalysisEngine;
use spo_obs::json::{self, Value};
use spo_rng::SmallRng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Queries per op.
const QUERIES: usize = 8;
/// Distinct query sets an op cycles through.
const QUERY_SETS: usize = 4;
const PAIRS: [(usize, usize); 3] = [(0, 1), (0, 2), (1, 2)];

#[derive(Default)]
pub struct ServeWarm {
    spo: PathBuf,
    socket: PathBuf,
    log: PathBuf,
    jir: Vec<PathBuf>,
    daemon: Option<Child>,
    conn: Option<(BufReader<UnixStream>, UnixStream)>,
    next_id: u64,
    /// Per pairing: the in-process `spo diff` report.
    diff_ref: Vec<String>,
    /// Per query set: (library, signature, in-process rendering).
    queries: Vec<Vec<(usize, String, String)>>,
    /// Client-observed `diff` round trips of every op, in µs.
    diff_rtt_us: Vec<f64>,
    /// The daemon's `serve.request.diff` (count, ns) after the warm-up.
    server_before: (u64, u64),
}

impl ServeWarm {
    fn start(&mut self) -> Result<(), String> {
        self.stop()?;
        let _ = std::fs::remove_file(&self.socket);
        let log =
            std::fs::File::create(&self.log).map_err(|e| format!("{}: {e}", self.log.display()))?;
        let mut cmd = Command::new(&self.spo);
        cmd.arg("serve").arg("--socket").arg(&self.socket).args([
            "--workers",
            "1",
            "--jobs",
            "1",
            "--no-cache",
        ]);
        for (lib, path) in Lib::ALL.iter().zip(&self.jir) {
            cmd.arg("--load")
                .arg(format!("{}={}", lib.name(), path.display()));
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("{}: {e}", self.spo.display()))?;
        self.daemon = Some(child);
        let deadline = Instant::now() + Duration::from_secs(60);
        let stream = loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => break s,
                Err(e) => {
                    if let Some(status) = self
                        .daemon
                        .as_mut()
                        .and_then(|c| c.try_wait().ok().flatten())
                    {
                        return Err(format!(
                            "spo serve exited with {status}; see {}",
                            self.log.display()
                        ));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("{}: {e}", self.socket.display()));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        self.conn = Some((reader, stream));
        // Warm-up: the first diff of each pairing analyzes both sides.
        for (i, &(l, r)) in PAIRS.iter().enumerate() {
            let (_, resp) = self.call("diff", &diff_params(l, r))?;
            if report_of(&resp)? != self.diff_ref[i] {
                return Err("serve_warm: warm-up diff differs from the CLI".to_owned());
            }
        }
        self.diff_rtt_us.clear();
        self.server_before = self.server_diff_time()?;
        Ok(())
    }

    /// The daemon's own (count, total ns) of `diff` requests, from its
    /// `stats` snapshot. Its p50 is a power-of-two bucket bound, too
    /// coarse for a 5 ms request, so the mean over the run is used.
    fn server_diff_time(&mut self) -> Result<(u64, u64), String> {
        let (_, resp) = self.call("stats", "{}")?;
        let v = json::parse(resp.trim_end())?;
        let h = v
            .get("result")
            .and_then(|r| r.get("stats"))
            .and_then(|s| s.get("durations"))
            .and_then(|d| d.get("serve.request.diff"))
            .ok_or("serve_warm: no serve.request.diff in stats")?;
        let field = |k: &str| {
            h.get(k)
                .and_then(Value::as_u64)
                .ok_or("serve_warm: bad histogram")
        };
        Ok((field("count")?, field("sum")?))
    }

    /// Sends one request and reads its response line; returns the round
    /// trip in µs and the raw line.
    fn call(&mut self, method: &str, params: &str) -> Result<(f64, String), String> {
        self.next_id += 1;
        let line = format!(
            "{{\"spo-rpc\":1,\"id\":{},\"method\":\"{method}\",\"params\":{params}}}\n",
            self.next_id
        );
        let (reader, writer) = self.conn.as_mut().ok_or("serve_warm: no daemon")?;
        let mut resp = String::new();
        let t0 = Instant::now();
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        reader
            .read_line(&mut resp)
            .map_err(|e| format!("recv: {e}"))?;
        let us = ms_since(t0) * 1e3;
        if resp.is_empty() {
            return Err("serve_warm: daemon closed the connection".to_owned());
        }
        Ok((us, resp))
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.daemon.take() else {
            return Ok(());
        };
        if self.conn.is_some() {
            let _ = self.call("shutdown", "{}");
        }
        self.conn = None;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = child.kill();
                    child.wait().map_err(|e| format!("spo serve: {e}"))?;
                    return Err("spo serve did not shut down".to_owned());
                }
            }
        }
    }
}

fn diff_params(l: usize, r: usize) -> String {
    format!(
        "{{\"left\":\"{}\",\"right\":\"{}\"}}",
        Lib::ALL[l].name(),
        Lib::ALL[r].name()
    )
}

/// The `report` of an `ok` response.
fn report_of(line: &str) -> Result<String, String> {
    let v = json::parse(line.trim_end())?;
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("serve_warm: not ok: {}", line.trim_end()));
    }
    v.get("result")
        .and_then(|r| r.get("report"))
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("serve_warm: no report in {}", line.trim_end()))
}

impl Workload for ServeWarm {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.spo = ctx.spo.clone();
        self.socket = ctx.work.join("serve_warm.sock");
        self.log = ctx.work.join("serve_warm.log");
        let corpus = common::corpus(ctx.seed, 1.0);
        let texts: Vec<String> = Lib::ALL
            .iter()
            .map(|&l| common::jir_text(&corpus, l))
            .collect();
        self.jir = Lib::ALL
            .iter()
            .map(|l| ctx.work.join(format!("serve_warm-{}.jir", l.name())))
            .collect();
        for (path, text) in self.jir.iter().zip(&texts) {
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        // The in-process CLI composition of every pairing, needed to
        // check the warm-up.
        let programs = texts
            .iter()
            .map(|t| common::parse(t))
            .collect::<Result<Vec<_>, _>>()?;
        let engine = AnalysisEngine::new(1);
        let mut libs = vec![None, None, None];
        self.diff_ref.clear();
        for &(l, r) in &PAIRS {
            let report = compare_implementations_with(
                &programs[l],
                Lib::ALL[l].name(),
                &programs[r],
                Lib::ALL[r].name(),
                common::options(),
                &engine,
            );
            self.diff_ref.push(report.render());
            libs[l] = Some(report.left);
            libs[r] = Some(report.right);
        }
        let libs: Vec<_> = libs.into_iter().flatten().collect();
        let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x5e7e);
        self.queries = (0..QUERY_SETS)
            .map(|_| {
                (0..QUERIES)
                    .map(|_| {
                        let lib = rng.gen_range(0..libs.len());
                        let sigs: Vec<&String> = libs[lib].entries.keys().collect();
                        let sig = sigs[rng.gen_range(0..sigs.len())];
                        let want = spo_core::render_entry(sig, &libs[lib].entries[sig]);
                        (lib, sig.clone(), want)
                    })
                    .collect()
            })
            .collect();
        self.start()
    }

    fn op(&mut self, k: u64, spans: Option<&mut Spans>) -> Result<Op, String> {
        let set = (k % QUERY_SETS as u64) as usize;
        let queries = self.queries[set].clone();
        let mut diffs = Vec::with_capacity(PAIRS.len());
        for &(l, r) in &PAIRS {
            diffs.push(self.call("diff", &diff_params(l, r))?);
        }
        let mut answers = Vec::with_capacity(queries.len());
        for (lib, sig, _) in &queries {
            let params = format!(
                "{{\"name\":\"{}\",\"entry\":\"{}\"}}",
                Lib::ALL[*lib].name(),
                json::escape(sig)
            );
            answers.push(self.call("query", &params)?);
        }
        let diff_us: f64 = diffs.iter().map(|d| d.0).sum();
        let query_us: f64 = answers.iter().map(|a| a.0).sum();
        let ms = (diff_us + query_us) / 1e3;
        self.diff_rtt_us.extend(diffs.iter().map(|d| d.0));
        if let Some(spans) = spans {
            spans.spans.insert("serve.diff", (diff_us / 1e3, 0));
            spans.spans.insert("serve.query", (query_us / 1e3, 0));
            spans.add("serve.diff_rtt_ms", diff_us / 1e3 / diffs.len() as f64);
            spans.add("serve.query_rtt_us", query_us / queries.len() as f64);
        }
        let check = || -> Result<bool, String> {
            for ((_, resp), want) in diffs.iter().zip(&self.diff_ref) {
                if report_of(resp)? != *want {
                    return Ok(false);
                }
            }
            for ((_, resp), (_, _, want)) in answers.iter().zip(&queries) {
                if report_of(resp)? != *want {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        let ok = check().unwrap_or_else(|e| {
            eprintln!("{e}");
            false
        });
        Ok(Op {
            ms,
            ok,
            key: set as u64,
        })
    }

    fn worker_pid(&self) -> Option<u32> {
        self.daemon.as_ref().map(Child::id)
    }

    fn run_values(&mut self, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
        let (c1, ns1) = self.server_diff_time()?;
        let (c0, ns0) = self.server_before;
        if c1 - c0 != self.diff_rtt_us.len() as u64 {
            return Err("serve_warm: daemon and client disagree on the diff count".to_owned());
        }
        let server_us = (ns1 - ns0) as f64 / (c1 - c0) as f64 / 1e3;
        let client_us = self.diff_rtt_us.iter().sum::<f64>() / self.diff_rtt_us.len() as f64;
        out.insert("serve.server_diff_us".to_owned(), server_us);
        out.insert("serve.transport_us".to_owned(), client_us - server_us);
        Ok(())
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.stop()
    }
}
