//! Per-step JSONL anomaly dumps.
//!
//! A process-global, line-oriented sink for the moments worth keeping when
//! something goes sideways: solver failures, fallback degradations,
//! iteration-count spikes. Each record is one JSON object per line —
//! trivially greppable and `jq`-able, and cheap enough to leave wired in
//! (disabled, every call is a single relaxed atomic load).
//!
//! The sink is opt-in via [`set_anomaly_log`]; nothing is ever written (and
//! no clock is read) unless a path was configured, so fault-free golden
//! runs are untouched.

use std::cell::RefCell;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::recorder::now_ns;
use crate::trace::escape_json;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<File>> = Mutex::new(None);

/// This thread's tenant tag. The buffer keeps its capacity across scopes.
struct TenantTag {
    buf: String,
    set: bool,
}

impl TenantTag {
    fn current(&self) -> Option<&str> {
        self.set.then_some(self.buf.as_str())
    }

    fn replace(&mut self, tag: Option<&str>) {
        self.buf.clear();
        self.buf.push_str(tag.unwrap_or_default());
        self.set = tag.is_some();
    }
}

thread_local! {
    static TENANT: RefCell<TenantTag> = const {
        RefCell::new(TenantTag {
            buf: String::new(),
            set: false,
        })
    };
}

/// Tags every [`record_anomaly`] call made *from this thread* with
/// `"tenant":"<id>"` until the returned guard drops. A multi-tenant host
/// steps many control loops on shared worker threads, so the tenant in
/// scope is a property of the thread's current slice of work, not of the
/// process; thread-local scoping keeps records attributed without
/// threading an id through every solver-level call site.
///
/// The id is copied into a per-thread buffer that keeps its capacity, so
/// once a thread has held an id this long, an outermost scope allocates
/// nothing; a nested scope saves a copy of the outer tag.
pub fn tenant_scope(id: &str) -> TenantScope {
    TENANT.with(|t| {
        let mut tag = t.borrow_mut();
        let prev = tag.current().map(str::to_owned);
        tag.replace(Some(id));
        TenantScope { prev }
    })
}

/// Restores the previous (usually empty) tenant tag on drop. Returned by
/// [`tenant_scope`]; scopes nest.
#[must_use = "the tenant tag is cleared when this guard drops"]
pub struct TenantScope {
    prev: Option<String>,
}

impl Drop for TenantScope {
    fn drop(&mut self) {
        TENANT.with(|t| t.borrow_mut().replace(self.prev.as_deref()));
    }
}

/// Opens (creating or truncating) `path` as the process-global anomaly log
/// and enables [`record_anomaly`].
///
/// # Errors
///
/// Propagates the underlying [`std::io::Error`] when the file cannot be
/// created.
pub fn set_anomaly_log(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *SINK.lock().expect("anomaly sink mutex") = Some(file);
    ENABLED.store(true, Ordering::SeqCst);
    Ok(())
}

/// Whether an anomaly log is configured. Callers with non-trivial detail
/// assembly should check this first and skip the work when disabled.
pub fn anomaly_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Appends one JSONL record: `kind`, the control `step` it happened at, a
/// monotonic `ts_ns`, and flat numeric `fields`. No-op unless
/// [`set_anomaly_log`] was called. Non-finite field values are rendered as
/// `null` (JSON has no NaN/Inf).
pub fn record_anomaly(kind: &str, step: u64, fields: &[(&str, f64)]) {
    if !anomaly_enabled() {
        return;
    }
    let mut line = String::with_capacity(96 + fields.len() * 24);
    line.push_str("{\"kind\":\"");
    line.push_str(&escape_json(kind));
    line.push_str(&format!("\",\"step\":{step},\"ts_ns\":{}", now_ns()));
    TENANT.with(|t| {
        if let Some(id) = t.borrow().current() {
            line.push_str(",\"tenant\":\"");
            line.push_str(&escape_json(id));
            line.push('"');
        }
    });
    for (key, value) in fields {
        line.push_str(",\"");
        line.push_str(&escape_json(key));
        line.push_str("\":");
        if value.is_finite() {
            line.push_str(&format!("{value}"));
        } else {
            line.push_str("null");
        }
    }
    line.push_str("}\n");
    let mut sink = SINK.lock().expect("anomaly sink mutex");
    if let Some(file) = sink.as_mut() {
        // A full disk must not take down the control loop; drop the record.
        let _ = file.write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_noop() {
        // Must not panic or create files as a side effect.
        record_anomaly("qp_infeasible", 3, &[("iterations", 12.0)]);
    }

    fn current_tenant() -> Option<String> {
        TENANT.with(|t| t.borrow().current().map(str::to_owned))
    }

    #[test]
    fn tenant_scopes_nest_and_unwind() {
        assert_eq!(current_tenant(), None);
        {
            let _outer = tenant_scope("t-007");
            assert_eq!(current_tenant().as_deref(), Some("t-007"));
            {
                let _inner = tenant_scope("t-042");
                assert_eq!(current_tenant().as_deref(), Some("t-042"));
            }
            assert_eq!(current_tenant().as_deref(), Some("t-007"));
        }
        assert_eq!(current_tenant(), None);
    }

    #[test]
    fn tenant_tag_is_per_thread() {
        let _scope = tenant_scope("t-main");
        std::thread::spawn(|| assert_eq!(current_tenant(), None))
            .join()
            .expect("spawned thread");
    }
}
