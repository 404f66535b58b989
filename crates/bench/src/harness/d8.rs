//! D8 — privacy redaction: throughput of the call-record sanitization
//! pipeline and of the text redactor, with the leakage invariant checked
//! on every run (leaks are a correctness failure, not a statistic).

use archival_core::redaction::Redactor;
use escs::call::{CallCategory, CallOutcome, CallRecord};
use escs::graph::{PsapId, RegionId};
use escs::privacy::{verify_no_leakage, PrivacyProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate `n` raw call records with full-precision sensitive fields.
pub fn raw_calls(n: usize, seed: u64) -> Vec<CallRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| CallRecord {
            call_id: i as u64,
            region: RegionId(i % 4),
            answered_by: Some(PsapId(i % 3)),
            transferred: rng.gen_bool(0.05),
            caller_phone: format!(
                "{}-555-{:04}",
                200 + rng.gen_range(0..700),
                rng.gen_range(0..10_000)
            ),
            gps: (
                45.0 + rng.gen_range(0.0..5.0),
                -125.0 + rng.gen_range(0.0..5.0),
            ),
            category: CallCategory::ALL[rng.gen_range(0..5usize)],
            arrived_ms: i as u64 * 1_000,
            answered_ms: Some(i as u64 * 1_000 + rng.gen_range(1..30_000u64)),
            handling_ms: Some(rng.gen_range(30_000..200_000)),
            dispatched: None,
            responder_unit: None,
            on_scene_ms: None,
            outcome: CallOutcome::AnsweredNoDispatch,
        })
        .collect()
}

/// Result of the call-sanitization measurement.
#[derive(Debug, Clone)]
pub struct CallRedactionRow {
    /// Records sanitized.
    pub records: usize,
    /// Records per second.
    pub records_per_sec: f64,
    /// Leakage check passed?
    pub no_leakage: bool,
}

/// Result of the text-redactor measurement.
#[derive(Debug, Clone)]
pub struct TextRedactionRow {
    /// Texts redacted.
    pub texts: usize,
    /// MiB/s of text scanned.
    pub mib_per_sec: f64,
    /// Sensitive spans found.
    pub spans: usize,
}

/// Sanitize 100k call records; verify zero leakage; measure throughput.
pub fn run_calls(obs: &itrust_obs::ObsCtx) -> (CallRedactionRow, String) {
    let _span = itrust_obs::span!(obs, "bench.d8.sanitize_calls");
    let calls = raw_calls(100_000, 3);
    let profile = PrivacyProfile::research_default();
    let (sanitized, secs) = super::timed(|| profile.apply_batch(&calls));
    let no_leakage = verify_no_leakage(&profile, &sanitized).is_ok();
    let row = CallRedactionRow {
        records: calls.len(),
        records_per_sec: calls.len() as f64 / secs.max(1e-9),
        no_leakage,
    };
    let out = format!(
        "D8 — call-record sanitization: {} records, leakage-free = {}\n",
        row.records, row.no_leakage
    );
    (row, out)
}

/// Redact synthetic incident narratives (every one seeded with a phone, an
/// email, and a GPS pair).
pub fn run_text(obs: &itrust_obs::ObsCtx) -> (TextRedactionRow, String) {
    let mut rng = StdRng::seed_from_u64(9);
    let texts: Vec<String> = (0..20_000)
        .map(|i| {
            format!(
                "incident {i}: caller {}-555-{:04} (mail agent{}@dispatch.example.org) \
                 reported smoke at {:.4}, {:.4}; unit {} responded within {} minutes",
                200 + rng.gen_range(0..700),
                rng.gen_range(0..10_000),
                i,
                45.0 + rng.gen_range(0.0..5.0),
                -125.0 + rng.gen_range(0.0..5.0),
                i % 12,
                rng.gen_range(2..20)
            )
        })
        .collect();
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    let redactor = Redactor::all().with_obs(obs.clone());
    let (spans, secs) = super::timed(|| {
        let mut spans = 0usize;
        for t in &texts {
            let outcome = redactor.redact(t);
            spans += outcome.spans.len();
            debug_assert!(!redactor.contains_sensitive(&outcome.text));
        }
        spans
    });
    let row = TextRedactionRow {
        texts: texts.len(),
        mib_per_sec: bytes as f64 / (1024.0 * 1024.0) / secs.max(1e-9),
        spans,
    };
    let out = format!(
        "D8 — text redaction: {} narratives, {} spans removed ({:.2}/doc)\n",
        row.texts,
        row.spans,
        row.spans as f64 / row.texts as f64
    );
    (row, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn sanitization_never_leaks() {
        let (row, _) = super::run_calls(&itrust_obs::ObsCtx::null());
        assert!(row.no_leakage);
    }

    #[test]
    fn every_narrative_has_redactable_content() {
        let (row, _) = super::run_text(&itrust_obs::ObsCtx::null());
        // ≥ 3 spans per narrative (phone, email, gps).
        assert!(
            row.spans >= row.texts * 3,
            "{} spans over {} texts",
            row.spans,
            row.texts
        );
    }
}
