//! A typed client for the serve protocol, used by `macrochip submit`,
//! `status`, `result`, `cancel` and `shutdown`.

use crate::proto::{self, Request};
use macrochip::campaign::{CampaignPoint, PointResult};
use macrochip::json::{self, Value};
use macrochip::progress::HostCounters;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

/// The server's answer to a `submit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submitted {
    pub job: String,
    /// `running`, or `done` when every point was served from the cache.
    pub state: String,
    pub points: usize,
    /// Points answered from the cache at submit time.
    pub warm: usize,
}

/// One `status` (or `watch`) reading of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    pub job: String,
    pub state: String,
    pub done: usize,
    pub total: usize,
    pub warm: usize,
    pub wall_ms: f64,
    /// `host.*` counter deltas since the job was accepted.
    pub counters: HostCounters,
}

impl JobStatus {
    pub fn terminal(&self) -> bool {
        self.state != "running"
    }
}

/// A connection to a running `macrochip serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (see [`proto::default_addr`] for the default).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One-line requests are tiny; without TCP_NODELAY each one can
        // stall ~40 ms behind the peer's delayed ACK (Nagle).
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send_line(&mut self, line: &str) -> Result<(), String> {
        // Single write: a line split across two segments re-opens the
        // Nagle/delayed-ACK window TCP_NODELAY closes.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer
            .write_all(&framed)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn read_line(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => {
                json::parse(line.trim_end_matches('\n')).map_err(|e| format!("bad response: {e}"))
            }
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// Sends `req` and returns the (single-line) response object, already
    /// checked for `"ok": true`.
    pub fn request(&mut self, req: &Request) -> Result<Value, String> {
        self.send_line(&proto::encode_request(req))?;
        expect_ok(self.read_line()?)
    }

    /// Probes the server; returns the `ping` response object (`version`,
    /// `protocol`, `side`, `workers`, `queue_cap`, `cache`, ...).
    pub fn ping(&mut self) -> Result<Value, String> {
        let v = self.request(&Request::Ping)?;
        match v.get("protocol").and_then(Value::as_u64) {
            Some(proto::PROTOCOL_VERSION) => Ok(v),
            Some(other) => Err(format!(
                "protocol mismatch: server speaks v{other}, this client v{}",
                proto::PROTOCOL_VERSION
            )),
            None => Err("server did not report a protocol version".to_string()),
        }
    }

    /// Submits a job of `points` under `command`, optionally pinning every
    /// point's seed to `seed`.
    pub fn submit(
        &mut self,
        command: &str,
        seed: Option<u64>,
        points: Vec<CampaignPoint>,
    ) -> Result<Submitted, String> {
        let v = self.request(&Request::Submit {
            command: command.to_string(),
            seed,
            points,
        })?;
        Ok(Submitted {
            job: str_field(&v, "job")?,
            state: str_field(&v, "state")?,
            points: usize_field(&v, "points")?,
            warm: usize_field(&v, "warm")?,
        })
    }

    pub fn status(&mut self, job: &str) -> Result<JobStatus, String> {
        let v = self.request(&Request::Status {
            job: job.to_string(),
        })?;
        decode_status(&v)
    }

    /// Fetches a finished job's results, in point order, decoded from the
    /// bit-exact cache encoding.
    pub fn result(&mut self, job: &str) -> Result<Vec<PointResult>, String> {
        let v = self.request(&Request::Result {
            job: job.to_string(),
        })?;
        let raw = v
            .get("results")
            .and_then(Value::as_array)
            .ok_or("missing \"results\" array")?;
        raw.iter()
            .enumerate()
            .map(|(i, r)| {
                r.as_str()
                    .and_then(PointResult::from_cache_bytes)
                    .ok_or_else(|| format!("result {i} does not decode"))
            })
            .collect()
    }

    pub fn cancel(&mut self, job: &str) -> Result<(), String> {
        self.request(&Request::Cancel {
            job: job.to_string(),
        })
        .map(|_| ())
    }

    /// Asks the daemon to stop accepting work and exit.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request(&Request::Shutdown).map(|_| ())
    }

    /// Streams progress events for `job` until it reaches a terminal
    /// state, invoking `on_progress` per event, and returns the final
    /// status as reported by the closing `end` event.
    pub fn wait(
        &mut self,
        job: &str,
        mut on_progress: impl FnMut(&JobStatus),
    ) -> Result<JobStatus, String> {
        self.send_line(&proto::encode_request(&Request::Watch {
            job: job.to_string(),
        }))?;
        loop {
            let v = expect_ok(self.read_line()?)?;
            let status = decode_status(&v)?;
            match v.get("event").and_then(Value::as_str) {
                Some("end") => return Ok(status),
                _ => on_progress(&status),
            }
        }
    }
}

fn expect_ok(v: Value) -> Result<Value, String> {
    if let Some(false) = v.get("ok").and_then(Value::as_bool) {
        let message = v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unspecified server error");
        return Err(message.to_string());
    }
    Ok(v)
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing \"{key}\" in response"))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| format!("missing \"{key}\" in response"))
}

fn decode_status(v: &Value) -> Result<JobStatus, String> {
    let counters = match v.get("counters") {
        Some(c) => HostCounters {
            points_done: u64_field(c, "points_done"),
            sim_events: u64_field(c, "sim_events"),
            packets: u64_field(c, "packets"),
            cache_hits: u64_field(c, "cache_hits"),
            cache_misses: u64_field(c, "cache_misses"),
        },
        None => HostCounters::default(),
    };
    Ok(JobStatus {
        job: str_field(v, "job")?,
        state: str_field(v, "state")?,
        done: usize_field(v, "done")?,
        total: usize_field(v, "total")?,
        warm: usize_field(v, "warm")?,
        wall_ms: v.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0),
        counters,
    })
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}
