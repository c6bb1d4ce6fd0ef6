//! The run manifest: one `mtasc.run_meta.v1` JSON document per recorded
//! run, describing what ran (program hash, config fingerprint), when,
//! how it ended, and which artifacts the run directory holds. The same
//! document — compact, one per line — is the registry's index format.

use asc_core::obs::{Json, MachineMeta};

use crate::ulid::format_unix_ms;

/// Schema tag on every manifest; bump on incompatible change.
pub const RUN_META_SCHEMA: &str = "mtasc.run_meta.v1";

/// How a recorded run ended (or that it has not yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Begun but not finished — either in flight or abandoned.
    Running,
    /// Finished cleanly.
    Ok,
    /// Finished with a simulation fault (deadlock, cycle limit, trap...).
    Fault,
}

impl RunStatus {
    /// All statuses, in display order.
    pub const ALL: [RunStatus; 3] = [RunStatus::Running, RunStatus::Ok, RunStatus::Fault];

    /// The wire/display label.
    pub fn label(self) -> &'static str {
        match self {
            RunStatus::Running => "running",
            RunStatus::Ok => "ok",
            RunStatus::Fault => "fault",
        }
    }

    /// Parse a wire label.
    pub fn from_label(s: &str) -> Option<RunStatus> {
        RunStatus::ALL.into_iter().find(|r| r.label() == s)
    }
}

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Manifest of one recorded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Registry id (a ULID; lexicographic order = creation order).
    pub id: String,
    /// What kind of invocation recorded it: `run`, `profile`, `kernel`.
    pub kind: String,
    /// Human name: the source path or kernel name.
    pub name: String,
    /// FNV-1a/64 of the program source, `fnv1a64:` + 16 hex digits.
    pub program_hash: String,
    /// Config fingerprint, e.g.
    /// `pes=16 threads=16 arity=4 w16 b=2 r=4 fine-grain simd=avx2`.
    pub config: String,
    /// PE count (also inside `config`; first-class for list columns).
    pub pes: u64,
    /// Start of the run, Unix milliseconds.
    pub started_unix_ms: u64,
    /// End of the run, Unix milliseconds (`None` while running).
    pub finished_unix_ms: Option<u64>,
    /// Current status.
    pub status: RunStatus,
    /// Fault description when `status` is [`RunStatus::Fault`].
    pub fault: Option<String>,
    /// Total cycles (0 while running).
    pub cycles: u64,
    /// Instructions issued (0 while running).
    pub issued: u64,
    /// Artifact files present in the run directory, in recording order
    /// (e.g. `report.json`, `profile.json`, `progress.jsonl`).
    pub artifacts: Vec<String>,
}

impl RunMeta {
    /// A fresh, running manifest (the store stamps `id` and start time).
    pub fn begin(
        kind: &str,
        name: &str,
        program_hash: String,
        config: String,
        pes: u64,
    ) -> RunMeta {
        RunMeta {
            id: String::new(),
            kind: kind.to_string(),
            name: name.to_string(),
            program_hash,
            config,
            pes,
            started_unix_ms: 0,
            finished_unix_ms: None,
            status: RunStatus::Running,
            fault: None,
            cycles: 0,
            issued: 0,
            artifacts: Vec::new(),
        }
    }

    /// Issued per cycle (0 when unfinished).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued as f64 / self.cycles as f64
        }
    }

    /// Serialize as a `mtasc.run_meta.v1` object. `None` fields are
    /// elided; [`RunMeta::from_json`] restores them as `None`, so the
    /// round-trip is lossless.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("schema".into(), Json::str(RUN_META_SCHEMA)),
            ("id".into(), Json::str(&self.id)),
            ("kind".into(), Json::str(&self.kind)),
            ("name".into(), Json::str(&self.name)),
            ("program_hash".into(), Json::str(&self.program_hash)),
            ("config".into(), Json::str(&self.config)),
            ("pes".into(), Json::U64(self.pes)),
            ("started_unix_ms".into(), Json::U64(self.started_unix_ms)),
            ("status".into(), Json::str(self.status.label())),
        ];
        if let Some(ms) = self.finished_unix_ms {
            obj.push(("finished_unix_ms".into(), Json::U64(ms)));
        }
        if let Some(fault) = &self.fault {
            obj.push(("fault".into(), Json::str(fault)));
        }
        obj.push(("cycles".into(), Json::U64(self.cycles)));
        obj.push(("issued".into(), Json::U64(self.issued)));
        obj.push(("artifacts".into(), Json::Arr(self.artifacts.iter().map(Json::str).collect())));
        Json::Obj(obj)
    }

    /// Reconstruct from [`RunMeta::to_json`]'s output. `None` on schema
    /// mismatch or missing/mistyped fields.
    pub fn from_json(v: &Json) -> Option<RunMeta> {
        if v.get("schema")?.as_str()? != RUN_META_SCHEMA {
            return None;
        }
        let artifacts = v
            .get("artifacts")?
            .as_arr()?
            .iter()
            .map(|a| a.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        Some(RunMeta {
            id: v.get("id")?.as_str()?.to_string(),
            kind: v.get("kind")?.as_str()?.to_string(),
            name: v.get("name")?.as_str()?.to_string(),
            program_hash: v.get("program_hash")?.as_str()?.to_string(),
            config: v.get("config")?.as_str()?.to_string(),
            pes: v.get("pes")?.as_u64()?,
            started_unix_ms: v.get("started_unix_ms")?.as_u64()?,
            finished_unix_ms: v.get("finished_unix_ms").and_then(Json::as_u64),
            status: RunStatus::from_label(v.get("status")?.as_str()?)?,
            fault: v.get("fault").and_then(Json::as_str).map(str::to_string),
            cycles: v.get("cycles")?.as_u64()?,
            issued: v.get("issued")?.as_u64()?,
            artifacts,
        })
    }

    /// Parse a manifest document (strict: any parse or schema failure is
    /// an error message).
    pub fn parse(text: &str) -> Result<RunMeta, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        RunMeta::from_json(&v).ok_or_else(|| format!("not a {RUN_META_SCHEMA} document"))
    }

    /// Multi-line human rendering (`mtasc runs show`).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("run      {}\n", self.id));
        out.push_str(&format!("kind     {}  ({})\n", self.kind, self.name));
        out.push_str(&format!("status   {}", self.status));
        if let Some(fault) = &self.fault {
            out.push_str(&format!(": {fault}"));
        }
        out.push('\n');
        out.push_str(&format!("started  {} UTC\n", format_unix_ms(self.started_unix_ms)));
        if let Some(ms) = self.finished_unix_ms {
            let dur = ms.saturating_sub(self.started_unix_ms);
            out.push_str(&format!(
                "finished {} UTC  ({}.{:03} s)\n",
                format_unix_ms(ms),
                dur / 1000,
                dur % 1000
            ));
        }
        out.push_str(&format!("program  {}\n", self.program_hash));
        out.push_str(&format!("config   {}\n", self.config));
        if self.status != RunStatus::Running {
            out.push_str(&format!(
                "totals   {} cycles, {} issued, IPC {:.3}\n",
                self.cycles,
                self.issued,
                self.ipc()
            ));
        }
        if !self.artifacts.is_empty() {
            out.push_str(&format!("artifacts {}\n", self.artifacts.join(", ")));
        }
        out
    }
}

/// FNV-1a/64 of a byte string, rendered as the registry's
/// `fnv1a64:<16 hex>` program-hash form.
pub fn program_hash(source: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in source.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}")
}

/// The registry's one-line config fingerprint for a machine geometry,
/// including the host execution strategy the run executed with — the
/// SIMD dispatch tier (`--no-simd`, or `MTASC_NO_SIMD`) and the resolved
/// segment count (`--segments`). Two runs with the same geometry
/// but different strategies are not comparable on wall time, so both are
/// part of the machine-config identity.
pub fn config_fingerprint(meta: &MachineMeta) -> String {
    format!(
        "pes={} threads={} arity={} w{} b={} r={} {} simd={} seg={}",
        meta.pes,
        meta.threads,
        meta.arity,
        meta.width_bits,
        meta.b,
        meta.r,
        meta.sched,
        meta.simd,
        meta.segments
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_meta(id: &str, status: RunStatus) -> RunMeta {
        RunMeta {
            id: id.to_string(),
            kind: "run".into(),
            name: "prog.asc".into(),
            program_hash: program_hash("halt"),
            config: "pes=16 threads=16 arity=4 w16 b=2 r=4 fine-grain simd=avx2 seg=1".into(),
            pes: 16,
            started_unix_ms: 1_700_000_000_000,
            finished_unix_ms: (status != RunStatus::Running).then_some(1_700_000_001_500),
            status,
            fault: (status == RunStatus::Fault).then(|| "deadlock at cycle 42".into()),
            cycles: if status == RunStatus::Running { 0 } else { 1176 },
            issued: if status == RunStatus::Running { 0 } else { 412 },
            artifacts: if status == RunStatus::Running {
                vec![]
            } else {
                vec!["report.json".into(), "progress.jsonl".into()]
            },
        }
    }

    #[test]
    fn fingerprint_includes_execution_strategy() {
        let meta = MachineMeta {
            pes: 16,
            threads: 16,
            arity: 4,
            width_bits: 16,
            b: 2,
            r: 4,
            sched: "fine-grain".into(),
            simd: "avx512".into(),
            segments: 4,
        };
        assert_eq!(
            config_fingerprint(&meta),
            "pes=16 threads=16 arity=4 w16 b=2 r=4 fine-grain simd=avx512 seg=4"
        );
    }

    #[test]
    fn json_round_trips_in_every_status() {
        for status in RunStatus::ALL {
            let m = sample_meta("01HF2K3M4N5P6Q7R8S9T0V1W2X", status);
            let back = RunMeta::parse(&m.to_json().to_pretty()).unwrap();
            assert_eq!(back, m, "{status}");
        }
    }

    #[test]
    fn rejects_other_schemas() {
        assert!(RunMeta::parse(r#"{"schema":"mtasc.run_report.v1"}"#).is_err());
        assert!(RunMeta::parse("[]").is_err());
        assert!(RunMeta::parse("{").is_err());
    }

    #[test]
    fn text_rendering_names_the_fault() {
        let m = sample_meta("01HF2K3M4N5P6Q7R8S9T0V1W2X", RunStatus::Fault);
        let text = m.to_text();
        assert!(text.contains("status   fault: deadlock at cycle 42"), "{text}");
        assert!(text.contains("2023-11-14 22:13:20 UTC"), "{text}");
        assert!(text.contains("(1.500 s)"), "{text}");
        // a running manifest has no totals line
        let running = sample_meta("01HF2K3M4N5P6Q7R8S9T0V1W2X", RunStatus::Running).to_text();
        assert!(!running.contains("totals"), "{running}");
    }

    #[test]
    fn program_hash_is_stable_and_discriminating() {
        assert_eq!(program_hash(""), "fnv1a64:cbf29ce484222325");
        assert_ne!(program_hash("halt"), program_hash("halt\n"));
        assert!(program_hash("x").starts_with("fnv1a64:"));
    }
}
