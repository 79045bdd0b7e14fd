//! In-memory span recorder for the traced run, written out at the end
//! as Chrome Trace Event JSON (opens in Perfetto or `chrome://tracing`).
//!
//! Every span carries both clocks: host time (the process CPU clock,
//! `util::cpu_ns`) read by the benchmark around a call into a library's
//! public function, and the
//! simulated CM-2 clock read from the machine before and after it. The
//! trace file has one track per clock; on the simulated track the ops
//! are laid end to end.

use crate::util::{cpu_ns, num, quote};
use std::fmt::Write as _;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub host_start_us: f64,
    pub host_end_us: f64,
    pub sim_start_us: f64,
    pub sim_end_us: f64,
}

impl Span {
    pub fn host_us(&self) -> f64 {
        self.host_end_us - self.host_start_us
    }
}

pub struct Spans {
    origin_ns: f64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// Simulated time of all earlier ops, so ops do not overlap on the
    /// simulated track.
    sim_base_us: f64,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin_ns: cpu_ns(), spans: Vec::new(), stack: Vec::new(), op: 0, sim_base_us: 0.0 }
    }

    /// Start op `op`; its simulated clock starts where the last op's ended.
    pub fn begin_op(&mut self, op: u64, previous_op_sim_us: f64) {
        self.op = op;
        self.sim_base_us += previous_op_sim_us;
    }

    /// Open a span at op-relative simulated time `sim_us`.
    pub fn open(&mut self, name: &'static str, sim_us: f64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            host_start_us: (cpu_ns() - self.origin_ns) / 1e3,
            host_end_us: 0.0,
            sim_start_us: self.sim_base_us + sim_us,
            sim_end_us: 0.0,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (the innermost open one) at op-relative `sim_us`.
    pub fn close(&mut self, id: usize, sim_us: f64) {
        let host = (cpu_ns() - self.origin_ns) / 1e3;
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.host_end_us = host;
        span.sim_end_us = self.sim_base_us + sim_us;
    }

    /// Host durations (µs) of every span called `name`.
    pub fn host_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::host_us).collect()
    }

    /// Host µs of op `op`'s first top-level span: the span around the
    /// op's entry point (later top-level spans, such as the scheduler's
    /// standalone reference runs, are not part of the op).
    pub fn op_host_us(&self, op: u64) -> f64 {
        self.spans.iter().find(|s| s.op == op && s.parent.is_none()).map_or(0.0, Span::host_us)
    }

    /// Chrome Trace Event JSON: pid 1, tid 1 = host clock, tid 2 =
    /// simulated clock; `args` carry the op id, span id and parent.
    pub fn chrome_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"args\":{{\"name\":{}}}}},\n\
             {{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"host clock\"}}}},\n\
             {{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":2,\"args\":{{\"name\":\"simulated CM-2 clock\"}}}}",
            quote(&format!("{workload} seed {seed}")),
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            for (tid, start, end) in
                [(1, s.host_start_us, s.host_end_us), (2, s.sim_start_us, s.sim_end_us)]
            {
                let _ = write!(
                    out,
                    ",\n{{\"ph\":\"X\",\"name\":{},\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"args\":{{\"op\":{},\"span\":{id},\"parent\":{parent}}}}}",
                    quote(s.name),
                    num(start),
                    num(end - start),
                    s.op,
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}
