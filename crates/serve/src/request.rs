//! The serving wire format: one JSON object per line, in and out.
//!
//! A request names a registered dataset, carries its own seed and ε split,
//! and fully determines its explanation: the served labeling is a public
//! function of the request (`row[cluster_by] mod n_clusters`), the engine RNG
//! is seeded from `seed`, and the shared counts cache only ever memoizes
//! values that are bit-identical however they were built. Responses therefore
//! serialize **only deterministic fields** — stage wall-clock times and the
//! scheduling-dependent `cache_hit` flag are deliberately excluded — so a
//! batch's sorted response lines are byte-identical for every worker count.

use crate::json::Json;
use crate::registry::AppendSummary;
use dpclustx::engine::StageEvent;
use dpclustx::explanation::GlobalExplanation;
use dpclustx::framework::DpClustXConfig;
use dpclustx::stage2::Stage2Kernel;
use dpclustx::Weights;

/// What a request asks the service to do.
///
/// The default op is `Explain`; an `{"op": "append", "rows": [[..], ..]}`
/// request instead extends the named dataset in place. Appends release
/// nothing and spend no ε — they re-derive public serving state (the grown
/// dataset, its chained fingerprint, refreshed count caches) — so they carry
/// none of the explain fields and always re-execute on `--resume`.
///
/// `Stats` and `Shutdown` are **control ops** for the resident daemon
/// (`dpclustx serve-daemon`): they spend no ε, are answered on the transport
/// only (never the durable response file), and a one-shot batch refuses them
/// with a typed error rather than guessing at daemon semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOp {
    /// Serve a differentially private explanation (the default).
    Explain,
    /// Append domain-coded rows to the named dataset.
    Append {
        /// Rows to append; each must match the dataset's arity and domains.
        rows: Vec<Vec<u32>>,
    },
    /// Report the daemon's rolling metrics snapshot (daemon only).
    Stats,
    /// Stop admission and begin the daemon's graceful drain (daemon only).
    Shutdown,
}

/// One explanation request, as decoded from a JSONL line.
///
/// Only `id` is required; every other field has the CLI's default. Weights
/// are accepted as a three-element array `[int, suf, div]` and normalized.
/// Unrecognized keys are ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRequest {
    /// Caller-chosen request identifier (echoed in the response; responses
    /// are written sorted by it).
    pub id: u64,
    /// Name of the registered dataset to explain (default `"default"`).
    pub dataset: String,
    /// Seed of this request's private engine RNG (default: `id`).
    pub seed: u64,
    /// Attribute whose coded value partitions the rows into clusters.
    pub cluster_by: usize,
    /// Number of clusters (`row[cluster_by] mod n_clusters`).
    pub n_clusters: usize,
    /// Stage-1 candidate-set size.
    pub k: usize,
    /// Stage-1 budget `ε_CandSet`.
    pub eps_cand: f64,
    /// Stage-2 budget `ε_TopComb`.
    pub eps_comb: f64,
    /// Histogram budget `ε_Hist` (`null` for a selection-only request, which
    /// the full pipeline rejects — exercised by the error-path tests).
    pub eps_hist: Option<f64>,
    /// Quality-measure weights λ.
    pub weights: Weights,
    /// Never parsed, rendered or read; see [`Stage2Kernel`].
    #[doc(hidden)]
    pub stage2_kernel: Stage2Kernel,
    /// Apply the partition-consistency projection to released histograms.
    pub consistency: bool,
    /// Per-request wall-clock budget in milliseconds (`None`: the batch
    /// default, or unbounded). The deadline bounds the whole serving path —
    /// admission (including time queued in the ledger's group-commit window
    /// or blocked on another request's in-flight counts build) and the
    /// engine's stage boundaries. A request that expires *before* its ε
    /// grant commits answers `ok: false` with reason `deadline_exceeded`
    /// and spends nothing; one that expires after commits keeps its ε spent.
    pub deadline_ms: Option<u64>,
    /// What the request asks for (explain by default, or a dataset append).
    pub op: RequestOp,
}

impl ExplainRequest {
    /// A request with every defaultable field defaulted.
    pub fn new(id: u64) -> Self {
        ExplainRequest {
            id,
            dataset: "default".to_string(),
            seed: id,
            cluster_by: 0,
            n_clusters: 2,
            k: 3,
            eps_cand: 0.1,
            eps_comb: 0.1,
            eps_hist: Some(0.1),
            weights: Weights::equal(),
            stage2_kernel: Stage2Kernel,
            consistency: false,
            deadline_ms: None,
            op: RequestOp::Explain,
        }
    }

    /// Whether this request is a dataset append (an ordering barrier in a
    /// batch: later requests must observe the grown dataset).
    pub fn is_append(&self) -> bool {
        matches!(self.op, RequestOp::Append { .. })
    }

    /// Whether this request is a daemon control op (`stats` / `shutdown`),
    /// answered on the transport without touching the pipeline or the ε
    /// ledger.
    pub fn is_control(&self) -> bool {
        matches!(self.op, RequestOp::Stats | RequestOp::Shutdown)
    }

    /// The engine configuration this request asks for.
    pub fn config(&self) -> DpClustXConfig {
        DpClustXConfig {
            k: self.k,
            eps_cand_set: self.eps_cand,
            eps_top_comb: self.eps_comb,
            eps_hist: self.eps_hist,
            weights: self.weights,
            consistency: self.consistency,
        }
    }

    /// Total ε this request will charge the dataset's accountant.
    pub fn total_epsilon(&self) -> f64 {
        self.config().total_epsilon()
    }

    /// Decodes a request from one JSONL line.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        Self::classify_json_line(line).map_err(|reject| reject.message)
    }

    /// [`Self::from_json_line`] with a **typed** failure: a line that cannot
    /// become a request comes back as a [`WireReject`] carrying whatever
    /// identifying fields were parseable (the offending `id`, the named
    /// dataset) plus a machine-readable reject class — so the serving layer
    /// can answer a hostile line with a per-request error response that
    /// echoes the id, instead of failing the whole batch or silently
    /// dropping the line.
    pub fn classify_json_line(line: &str) -> Result<Self, WireReject> {
        let v = Json::parse(line).map_err(WireReject::unparseable)?;
        if !matches!(v, Json::Object(_)) {
            return Err(WireReject::unparseable(
                "request must be a JSON object".to_string(),
            ));
        }
        // Capture the identifying fields first, independently of strict
        // validation: even a line that fails validation can still echo them.
        let id = v.get("id").and_then(Json::as_u64);
        let dataset = match v.get("dataset") {
            Some(d) => d.as_str().map(str::to_string),
            None => Some("default".to_string()),
        };
        let req = Self::parse_fields(&v).map_err(|message| WireReject {
            line: 0,
            id,
            dataset: dataset.clone(),
            message,
            reason: reject_reason::BAD_LINE,
        })?;
        // Validate ε at the wire boundary: a non-finite or negative budget
        // must never reach the accountant (NaN compares false against every
        // cap check, which would silently admit an unbounded spend).
        for (name, value) in [
            ("eps_cand", Some(req.eps_cand)),
            ("eps_comb", Some(req.eps_comb)),
            ("eps_hist", req.eps_hist),
        ] {
            if let Some(value) = value {
                if !value.is_finite() || value < 0.0 {
                    return Err(WireReject {
                        line: 0,
                        id,
                        dataset,
                        message: format!(
                            "'{name}' must be a finite non-negative number, got {value}"
                        ),
                        reason: reject_reason::INVALID_EPSILON,
                    });
                }
            }
        }
        Ok(req)
    }

    /// The strict field-by-field decode (everything but the ε range check,
    /// which [`Self::classify_json_line`] types separately).
    fn parse_fields(v: &Json) -> Result<Self, String> {
        let id = v
            .get("id")
            .ok_or_else(|| "missing required field 'id'".to_string())?
            .as_u64()
            .ok_or_else(|| "'id' must be a non-negative integer".to_string())?;
        let mut req = ExplainRequest::new(id);
        if let Some(d) = v.get("dataset") {
            req.dataset = d
                .as_str()
                .ok_or_else(|| "'dataset' must be a string".to_string())?
                .to_string();
        }
        if let Some(s) = v.get("seed") {
            req.seed = s
                .as_u64()
                .ok_or_else(|| "'seed' must be a non-negative integer".to_string())?;
        }
        req.cluster_by = field_usize(v, "cluster_by", req.cluster_by)?;
        req.n_clusters = field_usize(v, "n_clusters", req.n_clusters)?;
        req.k = field_usize(v, "k", req.k)?;
        req.eps_cand = field_f64(v, "eps_cand", req.eps_cand)?;
        req.eps_comb = field_f64(v, "eps_comb", req.eps_comb)?;
        if let Some(h) = v.get("eps_hist") {
            req.eps_hist = match h {
                Json::Null => None,
                _ => Some(
                    h.as_f64()
                        .ok_or_else(|| "'eps_hist' must be a number or null".to_string())?,
                ),
            };
        }
        if let Some(w) = v.get("weights") {
            req.weights = parse_weights(w)?;
        }
        if let Some(c) = v.get("consistency") {
            req.consistency = c
                .as_bool()
                .ok_or_else(|| "'consistency' must be a boolean".to_string())?;
        }
        if let Some(d) = v.get("deadline_ms") {
            req.deadline_ms = match d {
                Json::Null => None,
                _ => Some(d.as_u64().ok_or_else(|| {
                    "'deadline_ms' must be a non-negative integer or null".to_string()
                })?),
            };
        }
        if let Some(op) = v.get("op") {
            let text = op
                .as_str()
                .ok_or_else(|| "'op' must be a string".to_string())?;
            match text {
                "explain" => {}
                "append" => {
                    let rows = v.get("rows").ok_or_else(|| {
                        "append requests need a 'rows' array of coded rows".to_string()
                    })?;
                    req.op = RequestOp::Append {
                        rows: parse_rows(rows)?,
                    };
                }
                "stats" => req.op = RequestOp::Stats,
                "shutdown" => req.op = RequestOp::Shutdown,
                other => {
                    return Err(format!(
                        "unknown op '{other}' (expected 'explain', 'append', 'stats', or \
                         'shutdown')"
                    ))
                }
            }
        }
        Ok(req)
    }

    /// Encodes the request as one JSONL line (the inverse of
    /// [`ExplainRequest::from_json_line`] up to defaulted fields). Append
    /// requests render only the fields that matter to an append — id,
    /// dataset, op, rows — since the explain knobs do not apply.
    pub fn to_json_line(&self) -> String {
        match self.op {
            RequestOp::Stats => {
                return Json::object()
                    .field("id", self.id)
                    .field("op", "stats")
                    .render()
            }
            RequestOp::Shutdown => {
                return Json::object()
                    .field("id", self.id)
                    .field("op", "shutdown")
                    .render()
            }
            RequestOp::Explain | RequestOp::Append { .. } => {}
        }
        if let RequestOp::Append { rows } = &self.op {
            let rows: Vec<Json> = rows
                .iter()
                .map(|row| Json::Array(row.iter().map(|&v| Json::Num(f64::from(v))).collect()))
                .collect();
            return Json::object()
                .field("id", self.id)
                .field("dataset", self.dataset.as_str())
                .field("op", "append")
                .field("rows", rows)
                .render();
        }
        let mut obj = Json::object()
            .field("id", self.id)
            .field("dataset", self.dataset.as_str())
            .field("seed", self.seed)
            .field("cluster_by", self.cluster_by)
            .field("n_clusters", self.n_clusters)
            .field("k", self.k)
            .field("eps_cand", self.eps_cand)
            .field("eps_comb", self.eps_comb);
        obj = match self.eps_hist {
            Some(e) => obj.field("eps_hist", e),
            None => obj.field("eps_hist", Json::Null),
        };
        obj = obj
            .field(
                "weights",
                vec![
                    Json::Num(self.weights.int),
                    Json::Num(self.weights.suf),
                    Json::Num(self.weights.div),
                ],
            )
            .field("consistency", self.consistency);
        if let Some(d) = self.deadline_ms {
            obj = obj.field("deadline_ms", d);
        }
        obj.render()
    }
}

/// Machine-readable classes for wire-level rejects (the request never became
/// an [`ExplainRequest`]); execution-level classes live in
/// [`crate::service::reason`].
pub mod reject_reason {
    /// The line decoded but its ε split is non-finite or negative.
    pub const INVALID_EPSILON: &str = "invalid_epsilon";
    /// The line re-used a request id already claimed earlier in the batch.
    pub const DUPLICATE_ID: &str = "duplicate_id";
    /// The line is not a decodable request at all (bad JSON, bad UTF-8,
    /// missing/ill-typed fields).
    pub const BAD_LINE: &str = "bad_line";
    /// The daemon refused the request at admission because the tenant's
    /// queue is full. The response carries a `retry_after_ms` backpressure
    /// hint; nothing was queued and no ε was spent.
    pub const OVERLOADED: &str = "overloaded";
}

/// A typed wire-level rejection: one request line that will never execute,
/// with whatever identity it managed to declare. A reject with a parseable
/// `id` becomes an `"ok": false` response line echoing that id (shaped like
/// a `budget_exceeded` rejection, `eps_remaining` included for capped
/// datasets); a reject with no id cannot be answered on the response stream
/// and must surface to the batch caller — never be silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReject {
    /// 1-based line number in the request stream (0 when the reject was
    /// classified outside a stream).
    pub line: usize,
    /// The offending request id, when the line got far enough to declare
    /// one.
    pub id: Option<u64>,
    /// The dataset the line named (defaulted to `"default"` like a request
    /// would), when parseable — the key for an `eps_remaining` lookup.
    pub dataset: Option<String>,
    /// What was wrong with the line.
    pub message: String,
    /// Machine-readable reject class (see [`reject_reason`]).
    pub reason: &'static str,
}

impl WireReject {
    /// A reject for a line with no recoverable identity at all.
    pub fn unparseable(message: impl Into<String>) -> Self {
        WireReject {
            line: 0,
            id: None,
            dataset: None,
            message: message.into(),
            reason: reject_reason::BAD_LINE,
        }
    }
}

fn field_usize(v: &Json, name: &str, default: usize) -> Result<usize, String> {
    match v.get(name) {
        None => Ok(default),
        Some(f) => f
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| format!("'{name}' must be a non-negative integer")),
    }
}

fn field_f64(v: &Json, name: &str, default: f64) -> Result<f64, String> {
    match v.get(name) {
        None => Ok(default),
        Some(f) => f
            .as_f64()
            .ok_or_else(|| format!("'{name}' must be a number")),
    }
}

fn parse_rows(v: &Json) -> Result<Vec<Vec<u32>>, String> {
    let rows = v
        .as_array()
        .ok_or_else(|| "'rows' must be an array of coded rows".to_string())?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let cells = row
                .as_array()
                .ok_or_else(|| format!("row {i} must be an array of codes"))?;
            cells
                .iter()
                .map(|cell| {
                    cell.as_u64()
                        .filter(|&c| c <= u64::from(u32::MAX))
                        .map(|c| c as u32)
                        .ok_or_else(|| format!("row {i} holds a non-code value (want u32)"))
                })
                .collect()
        })
        .collect()
}

fn parse_weights(v: &Json) -> Result<Weights, String> {
    let items = v
        .as_array()
        .ok_or_else(|| "'weights' must be an array [int, suf, div]".to_string())?;
    if items.len() != 3 {
        return Err("'weights' must have exactly three elements".to_string());
    }
    let mut parts = [0.0f64; 3];
    for (i, item) in items.iter().enumerate() {
        parts[i] = item
            .as_f64()
            .ok_or_else(|| "'weights' elements must be numbers".to_string())?;
        if !parts[i].is_finite() || parts[i] < 0.0 {
            return Err(format!("weight {} must be finite and >= 0", parts[i]));
        }
    }
    let sum: f64 = parts.iter().sum();
    if sum <= 0.0 {
        return Err("'weights' must have positive sum".to_string());
    }
    Ok(Weights::new(parts[0] / sum, parts[1] / sum, parts[2] / sum))
}

/// The deterministic slice of one stage's observer event: name, ε charged,
/// and the stage metrics *minus* `cache_hit` (which depends on request
/// scheduling, not on the request).
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage name (one of the engine's `STAGE_*` constants).
    pub stage: String,
    /// ε charged by the stage.
    pub epsilon: f64,
    /// Deterministic stage metrics, in emission order.
    pub metrics: Vec<(String, f64)>,
}

impl StageSummary {
    /// Extracts the deterministic summary of an engine [`StageEvent`].
    pub fn from_event(event: &StageEvent) -> Self {
        StageSummary {
            stage: event.stage.to_string(),
            epsilon: event.epsilon,
            metrics: event
                .metrics
                .iter()
                .filter(|(k, _)| *k != "cache_hit")
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

/// A successfully served explanation: the released artifact plus the
/// per-stage observer summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedExplanation {
    /// Selected attribute index per cluster.
    pub attributes: Vec<usize>,
    /// Selected attribute name per cluster.
    pub attribute_names: Vec<String>,
    /// Total ε the request spent (accountant audit total).
    pub eps_spent: f64,
    /// Per-stage summaries, in pipeline order.
    pub stages: Vec<StageSummary>,
    /// Released noisy histogram pairs, one per cluster:
    /// `(cluster, attribute, hist_cluster, hist_rest)`.
    pub clusters: Vec<(usize, usize, Vec<f64>, Vec<f64>)>,
}

impl ServedExplanation {
    /// Assembles the response payload from the engine's outputs.
    pub fn new(explanation: &GlobalExplanation, eps_spent: f64, events: &[StageEvent]) -> Self {
        ServedExplanation {
            attributes: explanation.attribute_combination(),
            attribute_names: explanation
                .attribute_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            eps_spent,
            stages: events.iter().map(StageSummary::from_event).collect(),
            clusters: explanation
                .per_cluster
                .iter()
                .map(|e| {
                    (
                        e.cluster,
                        e.attribute,
                        e.hist_cluster.clone(),
                        e.hist_rest.clone(),
                    )
                })
                .collect(),
        }
    }
}

/// What a successful response carries: the payload of the request's op.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedOutcome {
    /// An explain request's released explanation.
    Explain(ServedExplanation),
    /// An append request's summary of the dataset growth.
    Append(AppendSummary),
}

impl ServedOutcome {
    /// The served explanation, if this outcome is one.
    pub fn explanation(&self) -> Option<&ServedExplanation> {
        match self {
            ServedOutcome::Explain(served) => Some(served),
            ServedOutcome::Append(_) => None,
        }
    }

    /// The append summary, if this outcome is one.
    pub fn append(&self) -> Option<&AppendSummary> {
        match self {
            ServedOutcome::Explain(_) => None,
            ServedOutcome::Append(summary) => Some(summary),
        }
    }
}

/// One response line: the request id plus either the op's payload or a
/// human-readable error (budget rejection, bad request, worker panic, …).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainResponse {
    /// The request's id.
    pub id: u64,
    /// The payload, or why there is none.
    pub outcome: Result<ServedOutcome, String>,
    /// Machine-readable failure class (`deadline_exceeded`,
    /// `budget_exceeded`, …) for error responses that have one.
    pub reason: Option<String>,
    /// Headroom left under the dataset's cap at response time. Only attached
    /// to error responses of capped datasets — it depends on what other
    /// requests were admitted first, so it would break the byte-identical
    /// determinism of success lines.
    pub eps_remaining: Option<f64>,
    /// Backpressure hint on daemon `overloaded` rejects: how long the caller
    /// should wait before retrying, estimated from the queue depth and the
    /// rolling per-request latency. Load-dependent by nature, so — like
    /// `eps_remaining` — it only ever rides error responses.
    pub retry_after_ms: Option<u64>,
}

impl ExplainResponse {
    /// A successful explain response.
    pub fn success(id: u64, served: ServedExplanation) -> Self {
        ExplainResponse {
            id,
            outcome: Ok(ServedOutcome::Explain(served)),
            reason: None,
            eps_remaining: None,
            retry_after_ms: None,
        }
    }

    /// A successful append response.
    pub fn appended(id: u64, summary: AppendSummary) -> Self {
        ExplainResponse {
            id,
            outcome: Ok(ServedOutcome::Append(summary)),
            reason: None,
            eps_remaining: None,
            retry_after_ms: None,
        }
    }

    /// An error response.
    pub fn error(id: u64, message: impl Into<String>) -> Self {
        ExplainResponse {
            id,
            outcome: Err(message.into()),
            reason: None,
            eps_remaining: None,
            retry_after_ms: None,
        }
    }

    /// Tags the response with a machine-readable failure reason.
    pub fn with_reason(mut self, reason: impl Into<String>) -> Self {
        self.reason = Some(reason.into());
        self
    }

    /// Attaches the dataset's remaining ε headroom.
    pub fn with_eps_remaining(mut self, remaining: f64) -> Self {
        self.eps_remaining = Some(remaining);
        self
    }

    /// Attaches an `overloaded` reject's backpressure hint.
    pub fn with_retry_after_ms(mut self, retry_after_ms: u64) -> Self {
        self.retry_after_ms = Some(retry_after_ms);
        self
    }

    /// Whether the request was served.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The served explanation, if this is a successful explain response.
    pub fn explanation(&self) -> Option<&ServedExplanation> {
        self.outcome
            .as_ref()
            .ok()
            .and_then(ServedOutcome::explanation)
    }

    /// The append summary, if this is a successful append response.
    pub fn append(&self) -> Option<&AppendSummary> {
        self.outcome.as_ref().ok().and_then(ServedOutcome::append)
    }

    /// Encodes the response as one JSONL line. Every rendered field is a
    /// deterministic function of the request and the dataset (see module
    /// docs), so identical batches render identical lines.
    pub fn to_json_line(&self) -> String {
        self.to_json().render()
    }

    /// Renders the response line into `buf`, clearing it first — the
    /// buffer-reuse form of [`ExplainResponse::to_json_line`]. The batch
    /// response writers keep one buffer per worker/stream, so steady-state
    /// serialization stops allocating a fresh `String` per response (the
    /// buffer amortizes to the largest line it has held). Identical bytes.
    pub fn render_json_line_into(&self, buf: &mut String) {
        buf.clear();
        self.to_json().render_into(buf);
    }

    /// The response's JSON tree (shared by both render paths).
    fn to_json(&self) -> Json {
        let obj = Json::object()
            .field("id", self.id)
            .field("ok", self.is_ok());
        match &self.outcome {
            Err(message) => {
                let mut obj = obj.field("error", message.as_str());
                if let Some(reason) = &self.reason {
                    obj = obj.field("reason", reason.as_str());
                }
                if let Some(remaining) = self.eps_remaining {
                    obj = obj.field("eps_remaining", remaining);
                }
                if let Some(retry_after_ms) = self.retry_after_ms {
                    obj = obj.field("retry_after_ms", retry_after_ms);
                }
                obj
            }
            // `refreshed_clusterings` is deliberately NOT serialized: how
            // many cached clusterings an append refreshes depends on cache
            // warmth (which explains ran before it, whether the run was
            // resumed) — like `cache_hit`, it would break the guarantee
            // that kill-and-rerun converges on byte-identical output.
            Ok(ServedOutcome::Append(summary)) => obj
                .field("op", "append")
                .field("appended", summary.appended)
                .field("total_rows", summary.total_rows),
            Ok(ServedOutcome::Explain(served)) => {
                let stages: Vec<Json> = served
                    .stages
                    .iter()
                    .map(|s| {
                        Json::object()
                            .field("stage", s.stage.as_str())
                            .field("epsilon", s.epsilon)
                            .field(
                                "metrics",
                                s.metrics
                                    .iter()
                                    .map(|(k, v)| {
                                        Json::Array(vec![Json::Str(k.clone()), Json::Num(*v)])
                                    })
                                    .collect::<Vec<_>>(),
                            )
                    })
                    .collect();
                let clusters: Vec<Json> = served
                    .clusters
                    .iter()
                    .map(|(cluster, attribute, hist_cluster, hist_rest)| {
                        Json::object()
                            .field("cluster", *cluster)
                            .field("attribute", *attribute)
                            .field(
                                "hist_cluster",
                                hist_cluster
                                    .iter()
                                    .map(|&x| Json::Num(x))
                                    .collect::<Vec<_>>(),
                            )
                            .field(
                                "hist_rest",
                                hist_rest.iter().map(|&x| Json::Num(x)).collect::<Vec<_>>(),
                            )
                    })
                    .collect();
                obj.field(
                    "attributes",
                    served
                        .attributes
                        .iter()
                        .map(|&a| Json::Num(a as f64))
                        .collect::<Vec<_>>(),
                )
                .field(
                    "attribute_names",
                    served
                        .attribute_names
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect::<Vec<_>>(),
                )
                .field("eps_spent", served.eps_spent)
                .field("stages", stages)
                .field("clusters", clusters)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_takes_defaults() {
        let req = ExplainRequest::from_json_line(r#"{"id": 9}"#).unwrap();
        assert_eq!(req, ExplainRequest::new(9));
        assert_eq!(req.seed, 9, "seed defaults to the id");
        assert!((req.total_epsilon() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn full_request_roundtrips() {
        let line = r#"{"id":3,"dataset":"patients","seed":41,"cluster_by":2,"n_clusters":4,
                       "k":2,"eps_cand":0.2,"eps_comb":0.3,"eps_hist":null,
                       "weights":[2,1,1],"consistency":true}"#
            .replace('\n', " ");
        let req = ExplainRequest::from_json_line(&line).unwrap();
        assert_eq!(req.dataset, "patients");
        assert_eq!(req.seed, 41);
        assert_eq!(req.eps_hist, None);
        assert!((req.weights.int - 0.5).abs() < 1e-12);
        assert!(req.consistency);
        let reparsed = ExplainRequest::from_json_line(&req.to_json_line()).unwrap();
        assert_eq!(reparsed, req);
        // The retired kernel selector is an unrecognized key like any other.
        for line in [
            r#"{"id":1,"stage2_kernel":"counter-par/4"}"#,
            r#"{"id":1,"frobnicate":7}"#,
        ] {
            assert_eq!(
                ExplainRequest::from_json_line(line).unwrap(),
                ExplainRequest::new(1)
            );
        }
    }

    #[test]
    fn bad_requests_are_rejected_with_messages() {
        for (line, needle) in [
            (r#"{"seed": 1}"#, "missing required field 'id'"),
            (r#"{"id": -1}"#, "'id'"),
            (r#"{"id": 1, "weights": [1, 2]}"#, "three elements"),
            (r#"{"id": 1, "weights": [0, 0, 0]}"#, "positive sum"),
            (r#"{"id": 1, "eps_cand": "a lot"}"#, "'eps_cand'"),
            (r#"[1, 2]"#, "must be a JSON object"),
            (r#"{"id": 1"#, "expected"),
        ] {
            let err = ExplainRequest::from_json_line(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn stage_summary_drops_cache_hit() {
        let event = StageEvent {
            stage: "build-counts",
            wall: std::time::Duration::from_millis(5),
            epsilon: 0.0,
            charges: vec![],
            metrics: vec![("cache_hit", 1.0), ("n_attributes", 12.0)],
        };
        let summary = StageSummary::from_event(&event);
        assert_eq!(summary.metrics, vec![("n_attributes".to_string(), 12.0)]);
    }

    #[test]
    fn error_response_renders_compactly() {
        let line = ExplainResponse::error(4, "unknown dataset 'x'").to_json_line();
        assert_eq!(line, r#"{"id":4,"ok":false,"error":"unknown dataset 'x'"}"#);
    }

    #[test]
    fn error_response_renders_reason_and_headroom() {
        let line = ExplainResponse::error(4, "request timed out")
            .with_reason("deadline_exceeded")
            .with_eps_remaining(0.25)
            .to_json_line();
        assert_eq!(
            line,
            r#"{"id":4,"ok":false,"error":"request timed out","reason":"deadline_exceeded","eps_remaining":0.25}"#
        );
    }

    #[test]
    fn nonfinite_or_negative_epsilon_is_rejected_at_the_wire() {
        for (line, needle) in [
            (r#"{"id":1,"eps_cand":-0.1}"#, "'eps_cand'"),
            (r#"{"id":1,"eps_comb":-3}"#, "'eps_comb'"),
            (r#"{"id":1,"eps_hist":-0.5}"#, "'eps_hist'"),
        ] {
            let err = ExplainRequest::from_json_line(line).unwrap_err();
            assert!(
                err.contains(needle) && err.contains("finite non-negative"),
                "{line}: {err}"
            );
        }
        // NaN/Infinity are unrepresentable in JSON and already die in the
        // parser; a null eps_hist stays legal (selection-only request).
        assert!(ExplainRequest::from_json_line(r#"{"id":1,"eps_hist":null}"#).is_ok());
        assert!(ExplainRequest::from_json_line(r#"{"id":1,"eps_cand":1e999}"#).is_err());
    }

    #[test]
    fn append_request_roundtrips_and_defaults_to_explain() {
        let req = ExplainRequest::from_json_line(r#"{"id":1}"#).unwrap();
        assert_eq!(req.op, RequestOp::Explain);
        assert!(!req.is_append());
        // An explicit explain op parses but is not re-rendered (the default
        // wire form stays byte-identical to previous releases).
        let req = ExplainRequest::from_json_line(r#"{"id":1,"op":"explain"}"#).unwrap();
        assert_eq!(req, ExplainRequest::new(1));
        assert!(!req.to_json_line().contains("op"));

        let line = r#"{"id":8,"dataset":"census","op":"append","rows":[[0,1,2],[3,4,5]]}"#;
        let req = ExplainRequest::from_json_line(line).unwrap();
        assert!(req.is_append());
        assert_eq!(
            req.op,
            RequestOp::Append {
                rows: vec![vec![0, 1, 2], vec![3, 4, 5]]
            }
        );
        assert_eq!(req.to_json_line(), line);
        assert_eq!(
            ExplainRequest::from_json_line(&req.to_json_line()).unwrap(),
            req
        );
    }

    #[test]
    fn bad_append_requests_are_rejected_with_messages() {
        for (line, needle) in [
            (r#"{"id":1,"op":"append"}"#, "'rows'"),
            (r#"{"id":1,"op":"append","rows":7}"#, "'rows'"),
            (r#"{"id":1,"op":"append","rows":[7]}"#, "row 0"),
            (r#"{"id":1,"op":"append","rows":[[0],[-1]]}"#, "row 1"),
            (r#"{"id":1,"op":"append","rows":[[5000000000]]}"#, "row 0"),
            (r#"{"id":1,"op":"retract"}"#, "unknown op 'retract'"),
            (r#"{"id":1,"op":3}"#, "'op' must be a string"),
        ] {
            let err = ExplainRequest::from_json_line(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn append_response_renders_compactly() {
        let line = ExplainResponse::appended(
            6,
            AppendSummary {
                appended: 2,
                total_rows: 602,
                refreshed_clusterings: 1,
            },
        )
        .to_json_line();
        // refreshed_clusterings stays off the wire: it reflects cache
        // warmth, not the request, so it would break resume convergence.
        assert_eq!(
            line,
            r#"{"id":6,"ok":true,"op":"append","appended":2,"total_rows":602}"#
        );
    }

    #[test]
    fn deadline_roundtrips_and_defaults_to_none() {
        let req = ExplainRequest::from_json_line(r#"{"id":1}"#).unwrap();
        assert_eq!(req.deadline_ms, None);
        assert!(!req.to_json_line().contains("deadline_ms"));

        let req = ExplainRequest::from_json_line(r#"{"id":1,"deadline_ms":250}"#).unwrap();
        assert_eq!(req.deadline_ms, Some(250));
        let reparsed = ExplainRequest::from_json_line(&req.to_json_line()).unwrap();
        assert_eq!(reparsed, req);

        let req = ExplainRequest::from_json_line(r#"{"id":1,"deadline_ms":null}"#).unwrap();
        assert_eq!(req.deadline_ms, None);
        let err = ExplainRequest::from_json_line(r#"{"id":1,"deadline_ms":-5}"#).unwrap_err();
        assert!(err.contains("'deadline_ms'"));
    }
}
