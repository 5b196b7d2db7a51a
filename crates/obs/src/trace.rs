//! Chrome trace-event JSON export (Perfetto / `chrome://tracing` format).
//!
//! Events are emitted as complete (`"ph":"X"`) events with microsecond
//! timestamps, wrapped in `{"traceEvents":[...]}` — the JSON object form
//! both viewers accept. Rendering is hand-rolled (std-only crate); names
//! are JSON-escaped and timestamps come pre-sorted from
//! [`FlightRecorder::snapshot`](crate::FlightRecorder::snapshot), so `ts`
//! is monotonically non-decreasing.

use crate::recorder::{global_recorder, TraceEvent};

/// Escapes `s` for inclusion in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_us(out: &mut String, ns: u64) {
    // Microseconds with fixed millinanosecond precision; trailing zeros are
    // harmless and keep the rendering allocation-light and locale-free.
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

/// Renders `events` as a Chrome trace-event JSON document.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        out.push_str(&escape_json(&e.name));
        out.push_str("\",\"cat\":\"");
        out.push_str(&escape_json(e.cat));
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        push_us(&mut out, e.start_ns);
        out.push_str(",\"dur\":");
        push_us(&mut out, e.dur_ns);
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"args\":{\"depth\":");
        out.push_str(&e.depth.to_string());
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Renders the global flight recorder as a Chrome trace. Returns a valid
/// empty trace (`{"traceEvents":[]}` shape) when no recorder is installed,
/// so HTTP handlers can call this unconditionally.
pub fn export_global_trace() -> String {
    match global_recorder() {
        Some(rec) => chrome_trace(&rec.snapshot()),
        None => chrome_trace(&[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(name: &str, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Owned(name.to_string()),
            cat: "test",
            start_ns,
            dur_ns,
            tid: 1,
            depth: 0,
        }
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(
            chrome_trace(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn events_render_with_microsecond_timestamps() {
        let trace = chrome_trace(&[ev("a", 1_500, 2_000), ev("b\"x", 3_500, 10)]);
        assert!(trace
            .contains("\"name\":\"a\",\"cat\":\"test\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.000"));
        assert!(trace.contains("\"name\":\"b\\\"x\""));
        assert!(trace.contains("\"ts\":3.500"));
    }
}
