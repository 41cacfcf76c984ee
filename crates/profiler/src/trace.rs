//! Chrome-trace export of kernel timelines.
//!
//! Writes the [Trace Event Format] JSON that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) render, so a modeled training run
//! can be inspected visually like an `nsys`/`nvprof` timeline: one lane
//! per operation class, one complete event per kernel.
//!
//! [`to_merged_chrome_trace`] additionally interleaves the *real* host
//! timeline collected by `gnnmark-telemetry` — process 0 holds one lane
//! per host thread (epoch/step/forward/backward/optimizer spans, resilience
//! marks), processes 1+ hold the modeled-GPU streams — so host overhead
//! and modeled kernel time can be compared on one screen.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

use gnnmark_telemetry::export::json_escape;
use gnnmark_telemetry::HostTrace;

use crate::profile::{FigureCategory, WorkloadProfile};

/// One pre-rendered trace event object (no separators — the document
/// assembler owns those, which is what keeps zero-event traces valid).
type Event = String;

fn thread_name_event(pid: usize, tid: usize, name: &str) -> Event {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(name)
    )
}

fn process_name_event(pid: usize, name: &str) -> Event {
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(name)
    )
}

/// Renders one modeled-GPU profile as events under `pid`: lane metadata for
/// every operation class plus back-to-back complete events per kernel.
fn profile_events(profile: &WorkloadProfile, pid: usize) -> Vec<Event> {
    let mut events = Vec::with_capacity(FigureCategory::ALL.len() + profile.kernels.len());
    for (i, cat) in FigureCategory::ALL.iter().enumerate() {
        events.push(thread_name_event(pid, i, cat.label()));
    }
    let mut cursor_us = 0.0f64;
    for k in &profile.kernels {
        let dur_us = k.time_ns / 1e3;
        let tid = FigureCategory::ALL
            .iter()
            .position(|&c| c == FigureCategory::from_class(k.class))
            .unwrap_or(0);
        let mut e = String::new();
        let _ = write!(
            e,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"flops\":{},\"iops\":{},\"l1_hit\":{:.3},\"divergence\":{:.3},\"sms\":{}}}}}",
            json_escape(k.kernel),
            json_escape(FigureCategory::from_class(k.class).label()),
            pid,
            tid,
            cursor_us,
            dur_us,
            k.flops,
            k.iops,
            k.memory.l1_hit_rate(),
            k.memory.divergence(),
            k.sms_used,
        );
        events.push(e);
        cursor_us += dur_us;
    }
    events
}

/// Renders the host timeline as events under pid 0: one lane per thread,
/// complete events for spans, instant events for marks. Timestamps are
/// re-based to the earliest event so the trace starts at t = 0.
fn host_events(host: &HostTrace) -> Vec<Event> {
    let mut events = Vec::with_capacity(host.lanes.len() + host.events.len() + 1);
    events.push(process_name_event(0, "host"));
    for lane in &host.lanes {
        events.push(thread_name_event(0, lane.lane, &lane.thread));
    }
    let base_ns = host.events.iter().map(|e| e.start_ns).min().unwrap_or(0);
    for e in &host.events {
        let ts_us = (e.start_ns - base_ns) as f64 / 1e3;
        let mut ev = String::new();
        if e.instant {
            let _ = write!(
                ev,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{:.3}}}",
                json_escape(&e.name),
                json_escape(e.cat),
                e.lane,
                ts_us,
            );
        } else {
            let _ = write!(
                ev,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}",
                json_escape(&e.name),
                json_escape(e.cat),
                e.lane,
                ts_us,
                e.dur_ns as f64 / 1e3,
            );
            for (i, (key, value)) in e.args.iter().enumerate() {
                let open = if i == 0 { ",\"args\":{" } else { "," };
                let _ = write!(ev, "{open}\"{}\":{value}", json_escape(key));
            }
            ev.push_str(if e.args.is_empty() { "}" } else { "}}" });
        }
        events.push(ev);
    }
    events
}

/// Assembles a complete trace document. The comma placement lives only
/// here, so an empty event list still yields valid JSON (the historical
/// trailing-comma-after-metadata bug).
fn assemble(events: &[Event], other_data: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(e);
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{{other_data}}}}}"
    );
    out
}

/// Serializes a profile's kernels as Chrome trace-event JSON.
///
/// Kernels are laid out back-to-back on a single modeled GPU stream
/// (`tid` = operation class), with microsecond timestamps. The returned
/// string is a complete JSON document, including when the profile recorded
/// zero kernels.
pub fn to_chrome_trace(profile: &WorkloadProfile) -> String {
    let events = profile_events(profile, 1);
    assemble(
        &events,
        &format!(
            "\"workload\":\"{}\",\"device\":\"{}\"",
            json_escape(&profile.name),
            json_escape(&profile.spec.name)
        ),
    )
}

/// Serializes the merged host + modeled-GPU timeline: the real training
/// run's spans (pid 0, one lane per host thread) next to each workload's
/// modeled kernel stream (pid `1 + i`, one lane per operation class).
/// Open the result in <https://ui.perfetto.dev> (or `chrome://tracing`).
pub fn to_merged_chrome_trace(host: &HostTrace, profiles: &[WorkloadProfile]) -> String {
    let mut events = host_events(host);
    for (i, p) in profiles.iter().enumerate() {
        let pid = 1 + i;
        events.push(process_name_event(
            pid,
            &format!("{} (modeled {})", p.name, p.spec.name),
        ));
        events.extend(profile_events(p, pid));
    }
    assemble(
        &events,
        &format!("\"processes\":{},\"host\":\"real\"", 1 + profiles.len()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ProfileSession;
    use gnnmark_gpusim::DeviceSpec;
    use gnnmark_telemetry::export::validate_json;
    use gnnmark_tensor::Tensor;

    fn sample_profile() -> WorkloadProfile {
        let mut s = ProfileSession::new("trace-test", DeviceSpec::v100());
        s.begin_step();
        let a = Tensor::ones(&[32, 32]);
        let _ = a.matmul(&a).unwrap();
        let _ = a.relu();
        s.end_step();
        s.finish()
    }

    fn empty_profile() -> WorkloadProfile {
        // A session with no steps records no kernels.
        ProfileSession::new("empty-test", DeviceSpec::v100()).finish()
    }

    #[test]
    fn trace_is_wellformed_json_shape() {
        let p = sample_profile();
        let json = to_chrome_trace(&p);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("sgemm"));
        assert!(json.contains("relu"));
        assert!(json.contains("trace-test"));
        validate_json(&json).expect("trace parses as JSON");
    }

    #[test]
    fn zero_kernel_trace_is_valid_json() {
        // Regression: the metadata lines used to carry trailing commas, so
        // a profile with no kernels produced `}},\n]` — invalid JSON.
        let p = empty_profile();
        assert!(p.kernels.is_empty(), "fixture must have no kernels");
        let json = to_chrome_trace(&p);
        validate_json(&json).expect("zero-kernel trace parses as JSON");
        assert!(json.contains("thread_name"), "lane metadata still present");
    }

    #[test]
    fn events_are_back_to_back_and_ordered() {
        let p = sample_profile();
        let json = to_chrome_trace(&p);
        // Extract ts values in order and check monotonicity.
        let ts: Vec<f64> = json
            .split("\"ts\":")
            .skip(1)
            .map(|s| s.split(',').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(ts.len(), p.kernels.len());
        assert!(ts.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(ts[0], 0.0);
    }

    #[test]
    fn merged_trace_interleaves_host_and_modeled_lanes() {
        use gnnmark_telemetry::{LaneInfo, SpanEvent};
        let host = HostTrace {
            events: vec![
                SpanEvent {
                    name: "forward".into(),
                    cat: "host",
                    lane: 0,
                    start_ns: 5_000,
                    dur_ns: 2_000,
                    instant: false,
                    args: vec![("elided", 1)],
                },
                SpanEvent {
                    name: "retry".into(),
                    cat: "resilience",
                    lane: 0,
                    start_ns: 8_000,
                    dur_ns: 0,
                    instant: true,
                    args: vec![],
                },
            ],
            lanes: vec![LaneInfo {
                lane: 0,
                thread: "main".into(),
            }],
        };
        let profiles = vec![sample_profile()];
        let json = to_merged_chrome_trace(&host, &profiles);
        validate_json(&json).expect("merged trace parses as JSON");
        // Host process 0 with the span, re-based to ts 0.
        assert!(json.contains("\"name\":\"forward\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":0"));
        assert!(json.contains("\"ts\":0.000,\"dur\":2.000,\"args\":{\"elided\":1}}"));
        assert!(json.contains("\"name\":\"retry\",\"cat\":\"resilience\",\"ph\":\"i\""));
        // Modeled process 1 with the kernel stream.
        assert!(json.contains("\"ph\":\"X\",\"pid\":1"));
        assert!(json.contains("sgemm"));
        assert!(json.contains("(modeled NVIDIA V100"));
    }

    #[test]
    fn merged_trace_with_no_host_events_or_profiles_is_valid() {
        let json = to_merged_chrome_trace(&HostTrace::default(), &[]);
        validate_json(&json).expect("empty merged trace parses");
    }
}
