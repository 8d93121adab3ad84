//! The suppression baseline: a checked-in list of findings the team has
//! explicitly deferred, each with an expiry date and a reason.
//!
//! Design goals, in order:
//!
//! 1. **No silent rot.** An entry that no longer matches any finding is
//!    *stale* and itself becomes a finding — the file must be
//!    regenerated (`swscc-lint --update-baseline`) so reviewers see the
//!    debt shrink in the diff. An entry past its expiry date stops
//!    suppressing and becomes a finding too.
//! 2. **Line-drift resistance.** Entries fingerprint the *content* of
//!    the flagged line (rule + file + trimmed line text), not its line
//!    number, so unrelated edits above don't invalidate the baseline.
//! 3. **Reviewable.** One entry per line, human-readable, with a
//!    mandatory free-text reason.
//!
//! Format (`crates/lint/baseline.lint`, `#` comments allowed):
//!
//! ```text
//! <rule> <fingerprint-hex> <file> expires=YYYY-MM-DD reason=<free text to EOL>
//! ```

use crate::engine::Finding;

/// One parsed baseline entry.
#[derive(Clone, Debug)]
pub struct Entry {
    pub rule: String,
    pub fingerprint: u64,
    pub file: String,
    /// `(year, month, day)` after which the entry stops suppressing.
    pub expires: (i64, u32, u32),
    pub reason: String,
    /// Line in the baseline file, for diagnostics.
    pub line: usize,
}

#[derive(Default)]
pub struct Baseline {
    pub entries: Vec<Entry>,
    /// Parse errors: reported as `baseline` findings (never silently
    /// dropped — a malformed suppression must not suppress).
    pub errors: Vec<(usize, String)>,
    /// Today's civil date, injectable for tests.
    today: (i64, u32, u32),
}

/// FNV-1a over rule + file + the flagged line's trimmed text.
pub fn fingerprint(rule: &str, file: &str, anchor: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for chunk in [rule, "\0", file, "\0", anchor.trim()] {
        for b in chunk.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

impl Baseline {
    pub fn empty() -> Baseline {
        Baseline {
            today: today_utc(),
            ..Baseline::default()
        }
    }

    pub fn parse(text: &str) -> Baseline {
        let mut b = Baseline::empty();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_entry(line, i + 1) {
                Ok(e) => b.entries.push(e),
                Err(msg) => b.errors.push((i + 1, msg)),
            }
        }
        b
    }

    #[cfg(test)]
    pub fn with_today(mut self, today: (i64, u32, u32)) -> Baseline {
        self.today = today;
        self
    }

    /// Splits raw findings into (reported, suppressed) and appends the
    /// meta-findings for stale/expired/malformed entries to `reported`.
    pub fn apply(&self, raw: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
        let mut reported = Vec::new();
        let mut suppressed = Vec::new();
        let mut matched = vec![false; self.entries.len()];

        'finding: for f in raw {
            let fp = fingerprint(f.rule, &f.file, &f.anchor);
            for (i, e) in self.entries.iter().enumerate() {
                if e.rule == f.rule && e.file == f.file && e.fingerprint == fp {
                    matched[i] = true;
                    if e.expires >= self.today {
                        suppressed.push(f);
                    } else {
                        let mut f = f;
                        f.message = format!(
                            "{} [baseline entry expired {}-{:02}-{:02}: {}]",
                            f.message, e.expires.0, e.expires.1, e.expires.2, e.reason
                        );
                        reported.push(f);
                    }
                    continue 'finding;
                }
            }
            reported.push(f);
        }

        for (e, m) in self.entries.iter().zip(&matched) {
            if !*m {
                reported.push(Finding {
                    rule: "baseline",
                    file: e.file.clone(),
                    line: 0,
                    message: format!(
                        "stale baseline entry (rule `{}`, fingerprint {:016x}) no longer \
                         matches any finding — regenerate with `cargo run -p swscc-lint -- \
                         --update-baseline` so the recorded debt shrinks in review",
                        e.rule, e.fingerprint
                    ),
                    anchor: String::new(),
                });
            }
        }
        for (line, msg) in &self.errors {
            reported.push(Finding {
                rule: "baseline",
                file: "crates/lint/baseline.lint".to_string(),
                line: *line,
                message: format!("malformed baseline entry: {msg}"),
                anchor: String::new(),
            });
        }
        (reported, suppressed)
    }

    /// Renders a regenerated baseline for `findings`, keeping the expiry
    /// and reason of entries that still match and stamping new ones with
    /// a 90-day expiry and a placeholder reason to be edited by hand.
    pub fn regenerate(&self, findings: &[Finding]) -> String {
        let mut out = String::from(
            "# swscc-lint suppression baseline.\n\
             # One deferred finding per line; regenerate with:\n\
             #   cargo run -p swscc-lint -- --update-baseline\n\
             # Every entry needs a real reason and an expiry — expired or\n\
             # stale entries turn back into findings (see DESIGN.md §13).\n",
        );
        let mut seen = std::collections::BTreeSet::new();
        for f in findings {
            let fp = fingerprint(f.rule, &f.file, &f.anchor);
            if !seen.insert((f.rule, f.file.clone(), fp)) {
                continue;
            }
            let (expires, reason) = self
                .entries
                .iter()
                .find(|e| e.rule == f.rule && e.file == f.file && e.fingerprint == fp)
                .map(|e| (e.expires, e.reason.clone()))
                .unwrap_or_else(|| {
                    (
                        add_days(self.today, 90),
                        "TODO justify or fix (auto-added)".to_string(),
                    )
                });
            out.push_str(&format!(
                "{} {:016x} {} expires={}-{:02}-{:02} reason={}\n",
                f.rule, fp, f.file, expires.0, expires.1, expires.2, reason
            ));
        }
        out
    }
}

fn parse_entry(line: &str, lineno: usize) -> Result<Entry, String> {
    let mut parts = line.splitn(4, ' ');
    let rule = parts.next().ok_or("missing rule")?.to_string();
    let fp = parts.next().ok_or("missing fingerprint")?;
    let fingerprint = u64::from_str_radix(fp, 16).map_err(|_| format!("bad fingerprint `{fp}`"))?;
    let file = parts.next().ok_or("missing file")?.to_string();
    let rest = parts.next().unwrap_or("");
    let rest = rest.trim();
    let expires_kv = rest
        .strip_prefix("expires=")
        .ok_or("missing `expires=YYYY-MM-DD`")?;
    let (date_str, reason_part) = expires_kv.split_once(' ').unwrap_or((expires_kv, ""));
    let expires = parse_date(date_str).ok_or_else(|| format!("bad date `{date_str}`"))?;
    let reason = reason_part
        .trim()
        .strip_prefix("reason=")
        .ok_or("missing `reason=…`")?
        .to_string();
    if reason.is_empty() {
        return Err("empty reason".to_string());
    }
    Ok(Entry {
        rule,
        fingerprint,
        file,
        expires,
        reason,
        line: lineno,
    })
}

fn parse_date(s: &str) -> Option<(i64, u32, u32)> {
    let mut it = s.split('-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some((y, m, d))
}

/// Today as a `(y, m, d)` civil date, UTC, from the system clock.
fn today_utc() -> (i64, u32, u32) {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    civil_from_days(secs.div_euclid(86_400))
}

/// Days-since-epoch → civil date (Howard Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Civil date → days-since-epoch (inverse of [`civil_from_days`]).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400);
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

fn add_days(date: (i64, u32, u32), days: i64) -> (i64, u32, u32) {
    civil_from_days(days_from_civil(date.0, date.1, date.2) + days)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, anchor: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 7,
            message: "m".to_string(),
            anchor: anchor.to_string(),
        }
    }

    #[test]
    fn civil_date_round_trip() {
        for z in [-719_468, -1, 0, 1, 19_000, 20_675, 1_000_000] {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z);
        }
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        // 2026-08-09 is 20674 days after the epoch.
        assert_eq!(days_from_civil(2026, 8, 9), 20_674);
    }

    #[test]
    fn live_entry_suppresses() {
        let f = finding("relaxed", "a.rs", "  x.load(Relaxed); ");
        let fp = fingerprint("relaxed", "a.rs", &f.anchor);
        let text = format!("relaxed {fp:016x} a.rs expires=2100-01-01 reason=demo\n");
        let b = Baseline::parse(&text).with_today((2026, 8, 9));
        let (reported, suppressed) = b.apply(vec![f]);
        assert!(reported.is_empty(), "{reported:?}");
        assert_eq!(suppressed.len(), 1);
    }

    #[test]
    fn expired_entry_reports() {
        let f = finding("relaxed", "a.rs", "x");
        let fp = fingerprint("relaxed", "a.rs", "x");
        let text = format!("relaxed {fp:016x} a.rs expires=2020-01-01 reason=old\n");
        let b = Baseline::parse(&text).with_today((2026, 8, 9));
        let (reported, suppressed) = b.apply(vec![f]);
        assert!(suppressed.is_empty());
        assert_eq!(reported.len(), 1);
        assert!(reported[0].message.contains("expired"));
    }

    #[test]
    fn stale_entry_reports() {
        let fp = fingerprint("relaxed", "gone.rs", "x");
        let text = format!("relaxed {fp:016x} gone.rs expires=2100-01-01 reason=r\n");
        let b = Baseline::parse(&text).with_today((2026, 8, 9));
        let (reported, _) = b.apply(vec![]);
        assert_eq!(reported.len(), 1);
        assert_eq!(reported[0].rule, "baseline");
        assert!(reported[0].message.contains("stale"));
    }

    #[test]
    fn malformed_entry_reports() {
        let b = Baseline::parse("relaxed nothex a.rs expires=2100-01-01 reason=r\n");
        let (reported, _) = b.apply(vec![]);
        assert_eq!(reported.len(), 1);
        assert!(reported[0].message.contains("malformed"));
    }

    #[test]
    fn regenerate_preserves_metadata_and_dedups() {
        let f = finding("relaxed", "a.rs", "x");
        let fp = fingerprint("relaxed", "a.rs", "x");
        let text = format!("relaxed {fp:016x} a.rs expires=2030-05-05 reason=carried over\n");
        let b = Baseline::parse(&text).with_today((2026, 8, 9));
        let out = b.regenerate(&[f.clone(), f]);
        let body: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(body.len(), 1);
        assert!(body[0].contains("expires=2030-05-05"));
        assert!(body[0].contains("reason=carried over"));
        let reparsed = Baseline::parse(&out);
        assert!(reparsed.errors.is_empty());
    }
}
