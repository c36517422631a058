//! Correctness checks. A run whose checks fail reports `"correct": false`,
//! and none of its numbers count.

use crate::drive::OpRecord;
use crate::stats::OpTally;
use dpx_serve::DrainSummary;

/// Every op got exactly one reply, a response and not a control line, and
/// no reply arrived that no client was waiting for.
pub fn answered_once<'a>(
    ops: impl IntoIterator<Item = &'a OpRecord>,
    strays: &[String],
) -> Result<(), String> {
    let mut ids = Vec::new();
    let mut failures: Vec<String> = ops
        .into_iter()
        .inspect(|record| ids.push(record.op.id))
        .filter_map(|record| match &record.reply {
            None => Some(format!("op {} was never answered", record.op.id)),
            Some(reply) if reply.control => Some(format!(
                "op {} was answered with a control line: {}",
                record.op.id, reply.line
            )),
            Some(_) => None,
        })
        .chain(strays.iter().cloned())
        .collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        failures.push("an op id was sent twice".to_string());
    }
    join(failures)
}

/// Whether `record` was answered `ok: true`.
pub fn reply_ok(record: &OpRecord) -> bool {
    record
        .reply
        .as_ref()
        .is_some_and(|reply| reply.ok && !reply.control)
}

/// How the ops ended, from the reply lines the clients received.
pub fn tally(ops: &[OpRecord]) -> OpTally {
    let mut tally = OpTally {
        attempted: ops.len() as u64,
        ..OpTally::default()
    };
    for record in ops {
        let Some(reply) = &record.reply else {
            tally.missing += 1;
            continue;
        };
        if reply.ok && !reply.control {
            tally.ok += 1;
        } else if reply.reason {
            tally.rejects += 1;
        } else {
            tally.errors += 1;
        }
    }
    tally
}

/// What the ε check found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpsAudit {
    /// Ok explain replies.
    pub explains: usize,
    /// Replies whose `eps_spent` (the engine's audit total, summed per
    /// charge) differs in its bits from the request's granted total.
    pub rounding_mismatches: usize,
}

/// Largest relative gap allowed between a reply's `eps_spent` and its
/// grant: the two are sums of the same charges in different groupings
/// (`ε_Hist` is split per attribute and cluster), so they may differ in
/// the last bits, never by more.
const EPS_ROUNDING: f64 = 1e-12;

/// Every ε grant the shard recorded is paid for by an ok explain reply:
/// the granted totals of the ok explains, summed in id order, equal the
/// shard's `spent()` bit for bit, and each reply's `eps_spent` matches its
/// grant up to rounding. A reply claiming ε it was not granted, or a grant
/// no reply accounts for, fails the check.
pub fn eps_accounted<'a>(
    replies: impl IntoIterator<Item = &'a OpRecord>,
    shard_spent: f64,
) -> Result<EpsAudit, String> {
    let mut grants: Vec<(u64, f64)> = Vec::new();
    let mut audit = EpsAudit {
        explains: 0,
        rounding_mismatches: 0,
    };
    for record in replies {
        let Some(eps) = record
            .reply
            .as_ref()
            .filter(|reply| reply.ok)
            .and_then(|reply| reply.eps_spent)
        else {
            continue;
        };
        let granted = record.op.eps;
        if (eps - granted).abs() > EPS_ROUNDING * granted {
            return Err(format!(
                "op {}: reply claims ε {eps:?}, its grant was {granted:?}",
                record.op.id
            ));
        }
        audit.explains += 1;
        audit.rounding_mismatches += usize::from(eps.to_bits() != granted.to_bits());
        grants.push((record.op.id, granted));
    }
    grants.sort_by_key(|&(id, _)| id);
    let granted: f64 = grants.iter().map(|&(_, eps)| eps).sum::<f64>() + 0.0;
    if granted.to_bits() == shard_spent.to_bits() {
        Ok(audit)
    } else {
        Err(format!(
            "ok replies were granted ε {granted:?} over {} explains, the shard spent {shard_spent:?}",
            grants.len()
        ))
    }
}

/// The drain checkpointed cleanly and the accounting probe saw nothing.
pub fn drain_clean(summary: &DrainSummary) -> Result<(), String> {
    if summary.clean() {
        Ok(())
    } else {
        Err(format!("unclean drain: {}", summary.render().trim_end()))
    }
}

/// `got` is byte-identical to `expected`.
pub fn same_bytes(what: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "{what}: lines differ at byte {at} (lengths {} and {})",
        expected.len(),
        got.len()
    ))
}

/// Collects check results into one list of failures.
#[derive(Debug, Default)]
pub struct Failures(pub Vec<String>);

impl Failures {
    /// Records `result` if it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(message) = result {
            self.0.push(message);
        }
    }
}

fn join(failures: Vec<String>) -> Result<(), String> {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{Op, Reply};
    use dpx_serve::Json;

    fn record(id: u64, reply: Reply) -> OpRecord {
        OpRecord {
            op: Op::new(&crate::workload::explain(id, id, 0, 2), true),
            start: 0,
            admitted: 1,
            done: Some(2),
            reply: Some(reply),
        }
    }

    const EPS: f64 = 0.1 + 0.1 + 0.1;

    fn ok_reply(eps: f64) -> Reply {
        Reply {
            line: Json::object()
                .field("ok", true)
                .field("eps_spent", eps)
                .render(),
            ok: true,
            reason: false,
            eps_spent: Some(eps),
            control: false,
            render: (1, 2),
        }
    }

    fn failed_reply(reason: bool) -> Reply {
        Reply {
            line: String::new(),
            ok: false,
            reason,
            eps_spent: None,
            control: false,
            render: (1, 2),
        }
    }

    fn served(n: u64) -> Vec<OpRecord> {
        (0..n).map(|id| record(id, ok_reply(EPS))).collect()
    }

    #[test]
    fn honest_replies_account_for_the_shard_exactly() {
        let ops = served(5);
        let spent = (0..5).map(|_| EPS).sum::<f64>();
        let audit = eps_accounted(&ops, spent).expect("accounted");
        assert_eq!((audit.explains, audit.rounding_mismatches), (5, 0));
        assert_eq!(answered_once(&ops, &[]), Ok(()));
        assert_eq!(tally(&ops).failed(), 0);
    }

    #[test]
    fn a_tampered_reply_trips_the_epsilon_check() {
        let mut ops = served(5);
        let spent = (0..5).map(|_| EPS).sum::<f64>();
        ops[3].reply = Some(ok_reply(0.2));
        assert!(eps_accounted(&ops, spent).is_err());
    }

    #[test]
    fn a_reply_rounding_its_charges_differently_is_counted_not_failed() {
        let mut ops = served(2);
        let spent = EPS + EPS;
        ops[1].reply = Some(ok_reply(0.3));
        let audit = eps_accounted(&ops, spent).expect("within rounding");
        assert_eq!(audit.rounding_mismatches, 1);
    }

    #[test]
    fn an_unaccounted_grant_trips_the_epsilon_check() {
        let ops = served(5);
        let spent_with_extra_grant = (0..6).map(|_| EPS).sum::<f64>();
        assert!(eps_accounted(&ops, spent_with_extra_grant).is_err());
    }

    #[test]
    fn a_tampered_reply_is_not_byte_identical_to_its_reserve() {
        let honest = ok_reply(EPS).line;
        let tampered = honest.replace("true", "false");
        assert!(same_bytes("re-serve", &honest, &honest).is_ok());
        assert!(same_bytes("re-serve", &honest, &tampered).is_err());
    }

    #[test]
    fn missing_duplicate_and_stray_replies_trip_the_answer_check() {
        let mut ops = served(3);
        ops[1].reply = None;
        ops[1].done = None;
        assert!(answered_once(&ops, &[]).is_err());
        let tally = tally(&ops);
        assert_eq!((tally.missing, tally.failed()), (1, 1));

        let ops = served(3);
        assert!(answered_once(&ops, &["unexpected reply 2".to_string()]).is_err());
        let mut twice = served(2);
        twice.push(record(1, ok_reply(EPS)));
        assert!(answered_once(&twice, &[]).is_err());
    }

    #[test]
    fn rejects_and_errors_count_as_failed() {
        let ops = vec![
            record(0, ok_reply(EPS)),
            record(1, failed_reply(true)),
            record(2, failed_reply(false)),
        ];
        let tally = tally(&ops);
        assert_eq!((tally.ok, tally.rejects, tally.errors), (1, 1, 1));
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }
}
