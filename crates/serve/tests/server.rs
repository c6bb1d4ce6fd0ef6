//! In-process integration tests for the observability daemon: bind an
//! ephemeral port, drive it with a bare `TcpStream` client, and check
//! every route against the registry it serves.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use asc_core::obs::{Json, ProgressSample, RunReport};
use asc_core::{Machine, MachineConfig};
use asc_obs_store::{filter_list, list_to_json, program_hash, RunMeta, RunStore, HEARTBEAT_FILE};
use asc_serve::{ServeOpts, Server, HTTP_SCHEMA};

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtasc-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Record one finished run with a real report artifact.
fn record_run(store: &RunStore, name: &str, cycle_budget: u64) -> String {
    let program = asc_asm::assemble(
        "        pidx   p1
                 rmax   s1, p1
                 halt
        ",
    )
    .unwrap();
    let mut m = Machine::with_program(MachineConfig::prototype(), &program).unwrap();
    let stats = m.run(cycle_budget).unwrap();
    let meta = RunMeta::begin("run", name, program_hash(name), "pes=16".into(), 16);
    let mut handle = store.begin(meta).unwrap();
    let report = RunReport::from_machine(&m);
    std::fs::write(handle.artifact_path("report.json"), report.to_json().to_pretty() + "\n")
        .unwrap();
    handle.add_artifact("report.json");
    let finished = handle.finish_ok(stats.cycles, stats.issued).unwrap();
    finished.id
}

fn start(root: &Path) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<std::io::Result<()>>) {
    let opts = ServeOpts {
        addr: "127.0.0.1:0".into(),
        runs_dir: Some(root.to_path_buf()),
        workers: 2,
        sse_poll_ms: 10,
    };
    let server = Server::bind(&opts).unwrap();
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    (addr, shutdown, thread::spawn(move || server.run()))
}

fn raw_request(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

/// GET `path`, returning (status, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let raw = raw_request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    );
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

#[test]
fn list_show_artifact_and_errors() {
    let root = tmp_root("routes");
    let store = RunStore::open(&root).unwrap();
    let id_a = record_run(&store, "alpha.asc", 10_000);
    let id_b = record_run(&store, "beta.asc", 10_000);
    let (addr, shutdown, handle) = start(&root);

    // /healthz names the schema and the root it serves
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("schema").and_then(Json::as_str), Some(HTTP_SCHEMA));
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    // /api/v1/runs is byte-for-byte the `runs list --json` document
    let (status, body) = get(addr, "/api/v1/runs");
    assert_eq!(status, 200);
    let (metas, _) = store.list().unwrap();
    assert_eq!(body, list_to_json(&metas).to_pretty() + "\n");

    // pagination + program filter narrow the same way filter_list does
    let (_, paged) = get(addr, "/api/v1/runs?limit=1&offset=1");
    let (expect, _) = filter_list(metas.clone(), None, None, Some(1), 1);
    assert_eq!(paged, list_to_json(&expect).to_pretty() + "\n");
    let query = program_hash("alpha.asc");
    let (_, filtered) = get(addr, &format!("/api/v1/runs?program={query}"));
    let doc = Json::parse(&filtered).unwrap();
    let rows = doc.as_arr().unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("id").and_then(Json::as_str), Some(id_a.as_str()));
    let (status, _) = get(addr, "/api/v1/runs?status=bogus");
    assert_eq!(status, 400);

    // unique-prefix resolution on /api/v1/runs/<id>: the shortest prefix
    // that tells id_b from id_a resolves, and the prefix they share is
    // ambiguous (runs recorded in the same millisecond share the whole
    // 10-character timestamp)
    let shared = id_a.bytes().zip(id_b.bytes()).take_while(|(x, y)| x == y).count();
    let (status, body) = get(addr, &format!("/api/v1/runs/{}", &id_b[..shared + 1]));
    assert_eq!(status, 200);
    let meta = Json::parse(&body).unwrap();
    assert_eq!(meta.get("id").and_then(Json::as_str), Some(id_b.as_str()));
    let (status, _) = get(addr, "/api/v1/runs/ZZZZZZ");
    assert_eq!(status, 404);
    let (status, body) = get(addr, &format!("/api/v1/runs/{}", &id_b[..shared]));
    assert_eq!(status, 409, "{body}");

    // report artifact is served verbatim
    let (status, body) = get(addr, &format!("/api/v1/runs/{id_a}/report"));
    assert_eq!(status, 200);
    let recorded = std::fs::read_to_string(store.run_dir(&id_a).join("report.json")).unwrap();
    assert_eq!(body, recorded);
    let (status, _) = get(addr, &format!("/api/v1/runs/{id_a}/profile"));
    assert_eq!(status, 404, "no profile was recorded");

    // routing misses and bad methods
    let (status, _) = get(addr, "/api/v2/nope");
    assert_eq!(status, 404);
    let raw = raw_request(addr, "POST /api/v1/runs HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 405 "), "{raw}");

    // /metrics: registry metrics plus the server's own counters
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("mtasc_runs_total{status=\"ok\"} 2"), "{body}");
    assert!(body.contains("mtasc_http_requests_total{route=\"/api/v1/runs\",status=\"200\"}"));
    assert!(body.contains("mtasc_http_in_flight_requests 1"), "the scrape itself is in flight");
    assert!(body.contains("mtasc_http_request_duration_ms_bucket{le=\"+Inf\"}"));
    assert!(body.contains("mtasc_http_request_duration_ms_count"));

    // the dashboard ships embedded
    let (status, body) = get(addr, "/");
    assert_eq!(status, 200);
    assert!(body.contains("<!DOCTYPE html>") && body.contains("mtasc serve"), "dashboard page");

    shutdown.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
}

#[test]
fn diff_reports_regressions_between_runs() {
    let root = tmp_root("diff");
    let store = RunStore::open(&root).unwrap();
    let id_a = record_run(&store, "base.asc", 10_000);
    let id_b = record_run(&store, "cand.asc", 10_000);
    // Inflate run B's recorded cycle count so the diff sees a regression
    // on the higher-is-worse `cycles` metric.
    let path = store.run_dir(&id_b).join("report.json");
    let mut report = RunReport::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    report.metrics.counter_add("cycles", report.metrics.counter("cycles") * 9);
    std::fs::write(&path, report.to_json().to_pretty() + "\n").unwrap();

    let (addr, shutdown, handle) = start(&root);
    let (status, body) = get(addr, &format!("/api/v1/runs/{id_a}/diff/{id_b}?fail-on-regress=5"));
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("mtasc.stats_diff.v1"));
    assert_eq!(doc.get("a").and_then(Json::as_str), Some(id_a.as_str()));
    assert_eq!(doc.get("b").and_then(Json::as_str), Some(id_b.as_str()));
    assert_eq!(doc.get("regressed"), Some(&Json::Bool(true)), "{body}");
    let names: Vec<&str> = doc
        .get("regressions")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(names.contains(&"cycles"), "{names:?}");

    // diffing against a missing run 404s
    let (status, _) = get(addr, &format!("/api/v1/runs/{id_a}/diff/ZZZZ"));
    assert_eq!(status, 404);

    shutdown.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
}

/// Read SSE events off a stream until the `end` event or EOF. Returns
/// (progress sample JSONs, end status).
fn read_sse(stream: TcpStream) -> (Vec<Json>, Option<String>) {
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        head.push_str(&line);
        if line == "\r\n" {
            break;
        }
    }
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.to_ascii_lowercase().contains("content-type: text/event-stream"), "{head}");
    let mut samples = Vec::new();
    let mut end = None;
    let mut event = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let line = line.trim_end();
        if let Some(name) = line.strip_prefix("event: ") {
            event = name.to_string();
        } else if let Some(data) = line.strip_prefix("data: ") {
            match event.as_str() {
                "progress" => samples.push(Json::parse(data).unwrap()),
                "end" => {
                    end = Json::parse(data)
                        .unwrap()
                        .get("status")
                        .and_then(Json::as_str)
                        .map(str::to_string);
                    break;
                }
                other => panic!("unexpected SSE event `{other}`"),
            }
        }
    }
    (samples, end)
}

#[test]
fn sse_replays_a_finished_run_and_closes() {
    let root = tmp_root("sse-finished");
    let store = RunStore::open(&root).unwrap();
    let meta = RunMeta::begin("run", "done.asc", program_hash("done.asc"), "pes=16".into(), 16);
    let handle = store.begin(meta).unwrap();
    let id = handle.id().to_string();
    let mut lines = String::new();
    for cycle in [100u64, 200, 300] {
        let sample = ProgressSample {
            cycle,
            issued: cycle / 2,
            final_sample: cycle == 300,
            ..ProgressSample::default()
        };
        lines.push_str(&(sample.to_json().to_compact() + "\n"));
    }
    std::fs::write(store.run_dir(&id).join(HEARTBEAT_FILE), lines).unwrap();
    handle.finish_ok(300, 150).unwrap();

    let (addr, shutdown, join) = start(&root);
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET /api/v1/runs/{id}/progress HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let (samples, end) = read_sse(stream);
    assert_eq!(samples.len(), 3);
    assert_eq!(samples[2].get("final"), Some(&Json::Bool(true)));
    assert_eq!(end.as_deref(), Some("ok"));

    shutdown.store(true, Ordering::SeqCst);
    join.join().unwrap().unwrap();
}

#[test]
fn sse_streams_a_live_run_until_the_final_sample() {
    let root = tmp_root("sse-live");
    let store = RunStore::open(&root).unwrap();
    let meta = RunMeta::begin("run", "live.asc", program_hash("live.asc"), "pes=16".into(), 16);
    let handle = store.begin(meta).unwrap();
    let id = handle.id().to_string();
    let heartbeat_path = store.run_dir(&id).join(HEARTBEAT_FILE);

    let sample = |cycle: u64, final_sample: bool| ProgressSample {
        cycle,
        issued: cycle,
        final_sample,
        ..ProgressSample::default()
    };
    // Two heartbeats exist before the client connects...
    let mut text = sample(10, false).to_json().to_compact() + "\n";
    text.push_str(&(sample(20, false).to_json().to_compact() + "\n"));
    std::fs::write(&heartbeat_path, text).unwrap();

    let (addr, shutdown, join) = start(&root);
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET /api/v1/runs/{id}/progress HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();

    // ...and the rest land while the stream is open, torn write included.
    let writer = thread::spawn(move || {
        use std::fs::OpenOptions;
        thread::sleep(Duration::from_millis(60));
        let line = sample(30, false).to_json().to_compact() + "\n";
        let (first, rest) = line.split_at(line.len() / 2);
        let mut f = OpenOptions::new().append(true).open(&heartbeat_path).unwrap();
        f.write_all(first.as_bytes()).unwrap();
        f.sync_all().unwrap();
        thread::sleep(Duration::from_millis(60));
        f.write_all(rest.as_bytes()).unwrap();
        f.write_all((sample(40, true).to_json().to_compact() + "\n").as_bytes()).unwrap();
        drop(f);
        handle.finish_ok(40, 40).unwrap();
    });

    let (samples, end) = read_sse(stream);
    writer.join().unwrap();
    let cycles: Vec<u64> = samples.iter().filter_map(|s| s.get("cycle")?.as_u64()).collect();
    assert_eq!(cycles, vec![10, 20, 30, 40], "live tail saw every heartbeat exactly once");
    // the final heartbeat and the manifest rewrite race benignly: the
    // stream may close before or after finish_ok lands on disk
    assert!(matches!(end.as_deref(), Some("ok") | Some("running")), "{end:?}");

    shutdown.store(true, Ordering::SeqCst);
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_flag_stops_the_accept_loop() {
    let root = tmp_root("shutdown");
    RunStore::open(&root).unwrap();
    let (addr, shutdown, handle) = start(&root);
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    shutdown.store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
    // the socket is released: connecting now fails (or is refused fast)
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
}
