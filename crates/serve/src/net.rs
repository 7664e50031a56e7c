//! The TCP face of the server: newline-delimited JSON over
//! `std::net::TcpListener`, one [`Request`] line in, one [`Response`] line
//! out — [`serve_reactor`], one event-driven IO thread for every connection
//! (`DESIGN.md` §14) — plus the matching thin [`Client`].
//!
//! No async runtime and no HTTP — the protocol is a plain line stream so a
//! session can be driven with `nc` during debugging, and the whole face fits
//! in the standard library.

use crate::cluster::Dispatch;
use crate::protocol::{
    ArrayPayload, CompileRequest, ExecuteRequest, PipelineRequest, Request, RequestBody, Response,
    ResponseStats, WireError, WireMode,
};
use crate::server::Reply;
use infs_faults::RetryPolicy;
use infs_frontend::Kernel;
use infs_shard::{
    run_reactor, ConnId, LineHandler, Outbox, ReactorConfig, ReactorStats, MAX_LINE_BYTES,
};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bridges the reactor's line-framing to a [`Dispatch`] target: parses each
/// line into a [`Request`], hands it off without blocking the reactor
/// thread, and routes the response back through the [`Outbox`] whenever a
/// worker finishes it.
struct ReactorBridge<D: Dispatch + ?Sized> {
    dispatch: Arc<D>,
    /// Requests dispatched but not yet answered — the reactor drains this
    /// to zero (within its grace window) before honoring shutdown.
    in_flight: Arc<AtomicUsize>,
}

fn bad_request(message: String) -> Response {
    Response::failure(
        0,
        WireError::new(WireError::BAD_REQUEST, message),
        ResponseStats::default(),
    )
}

fn encode_response(response: &Response) -> Vec<u8> {
    serde_json::to_string(response).map_or_else(
        |e| {
            // A response that cannot serialize is a server bug; still answer
            // the line rather than stalling the client.
            format!(
                "{{\"id\":{},\"ok\":false,\"error\":{{\"kind\":\"{}\",\"message\":\"unencodable response: {e}\"}}}}",
                response.id,
                WireError::EXECUTION
            )
            .into_bytes()
        },
        String::into_bytes,
    )
}

impl<D: Dispatch + ?Sized> LineHandler for ReactorBridge<D> {
    fn on_line(&self, conn: ConnId, line: &str, out: &Outbox) {
        let request = match serde_json::from_str::<Request>(line) {
            Ok(request) => request,
            Err(e) => {
                let response = bad_request(format!("unparseable request: {e}"));
                out.send(conn, encode_response(&response));
                return;
            }
        };
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let outbox = out.clone();
        let in_flight = Arc::clone(&self.in_flight);
        self.dispatch.dispatch(
            request,
            Reply::new(move |response| {
                let encoded = encode_response(&response);
                // Decrement before the send wakes the reactor: a draining
                // reactor that sees the count at zero exits at once, and the
                // connection's own pending count covers the gap until then.
                in_flight.fetch_sub(1, Ordering::SeqCst);
                outbox.send(conn, encoded);
            }),
        );
    }

    fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    fn overlong_line(&self, _conn: ConnId) -> Option<Vec<u8>> {
        let response = bad_request(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
        Some(encode_response(&response))
    }
}

/// Runs the event-driven IO path: one reactor thread multiplexes every
/// connection (`DESIGN.md` §14) and requests flow into `dispatch` — a single
/// [`crate::Server`] or a [`crate::ShardCluster`]. Returns once `dispatch`
/// reports shutdown (a `Shutdown` request from any connection, or
/// `begin_shutdown` from another thread) and in-flight responses have
/// flushed; the caller then drains workers with its own `shutdown()`.
///
/// # Errors
///
/// Returns the error if the reactor cannot be set up (wake-up socket pair,
/// non-blocking listener) or `poll(2)` itself fails; per-connection IO
/// errors only drop that connection.
pub fn serve_reactor<D>(
    dispatch: &Arc<D>,
    listener: TcpListener,
    cfg: &ReactorConfig,
) -> std::io::Result<ReactorStats>
where
    D: Dispatch + ?Sized + 'static,
{
    let stop = AtomicBool::new(false);
    let outbox = Outbox::new()?;
    let bridge = ReactorBridge {
        dispatch: Arc::clone(dispatch),
        in_flight: Arc::new(AtomicUsize::new(0)),
    };
    std::thread::scope(|s| {
        // Shutdown watcher: the reactor thread never blocks on the dispatch
        // target, so something has to notice `is_shutting_down()` flipping
        // (possibly from a non-network caller) and poke the reactor awake.
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                if bridge.dispatch.is_shutting_down() {
                    stop.store(true, Ordering::SeqCst);
                    outbox.wake();
                    break;
                }
                std::thread::sleep(cfg.poll_interval);
            }
        });
        let result = run_reactor(listener, &bridge, cfg, &stop, &outbox);
        // On a setup error the flag was never set; release the watcher.
        stop.store(true, Ordering::SeqCst);
        result
    })
}

/// Thin synchronous client for the newline-delimited JSON protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Tenant name stamped on every request.
    pub tenant: String,
    next_id: u64,
}

impl Client {
    /// Connects to a running `infs-served`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs, tenant: impl Into<String>) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small segments in a closed loop: Nagle would
        // only hold them back against the server's delayed ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            tenant: tenant.into(),
            next_id: 1,
        })
    }

    /// Sends one request body and waits for the matching response.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on transport failure or an unparseable response.
    pub fn request(
        &mut self,
        deadline_ms: Option<u64>,
        body: RequestBody,
    ) -> std::io::Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request {
            id,
            tenant: self.tenant.clone(),
            deadline_ms,
            body,
        };
        let mut line = serde_json::to_string(&request)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(reply.trim_end())
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Like [`Client::request`], but retries *transient* rejections —
    /// `backpressure` and `worker-fault` — under the given [`RetryPolicy`],
    /// sleeping `RetryPolicy::backoff_ms` (deterministically jittered, and
    /// never less than the server's `retry_after_ms` hint) between attempts.
    /// Any other outcome, success or failure, is returned as-is; transient
    /// failures are returned once attempts are exhausted.
    ///
    /// # Errors
    ///
    /// Transport failures, as [`Client::request`].
    pub fn request_with_retry(
        &mut self,
        deadline_ms: Option<u64>,
        body: RequestBody,
        policy: &RetryPolicy,
    ) -> std::io::Result<Response> {
        let mut attempt = 0;
        loop {
            let response = self.request(deadline_ms, body.clone())?;
            let retryable = response.error.as_ref().is_some_and(|e| {
                e.kind == WireError::BACKPRESSURE || e.kind == WireError::WORKER_FAULT
            });
            if !retryable || attempt + 1 >= policy.max_attempts.max(1) {
                return Ok(response);
            }
            let hint = response.error.as_ref().and_then(|e| e.retry_after_ms);
            std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt, hint)));
            attempt += 1;
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures, as [`Client::request`].
    pub fn ping(&mut self) -> std::io::Result<Response> {
        self.request(None, RequestBody::Ping)
    }

    /// Health probe: degradation status and fault counters.
    ///
    /// # Errors
    ///
    /// Transport failures, as [`Client::request`].
    pub fn health(&mut self) -> std::io::Result<Response> {
        self.request(None, RequestBody::Health)
    }

    /// Compiles a kernel into a cached artifact.
    ///
    /// # Errors
    ///
    /// Transport failures, as [`Client::request`].
    pub fn compile(
        &mut self,
        kernel: Kernel,
        representative_syms: Vec<i64>,
        optimize: bool,
    ) -> std::io::Result<Response> {
        self.request(
            None,
            RequestBody::Compile(CompileRequest {
                kernel,
                representative_syms,
                optimize,
            }),
        )
    }

    /// Executes a region of a compiled artifact.
    ///
    /// # Errors
    ///
    /// Transport failures, as [`Client::request`].
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &mut self,
        artifact: &str,
        region: &str,
        syms: Vec<i64>,
        params: Vec<f32>,
        mode: WireMode,
        inputs: Vec<ArrayPayload>,
        outputs: Vec<u32>,
    ) -> std::io::Result<Response> {
        self.request(
            None,
            RequestBody::Execute(ExecuteRequest {
                artifact: Some(artifact.to_string()),
                binary: None,
                region: region.to_string(),
                syms,
                params,
                mode,
                inputs,
                outputs,
            }),
        )
    }

    /// Compiles and runs a whole pipeline graph (serialized
    /// `infs_pipeline::PipelineGraph` JSON) in one request.
    ///
    /// # Errors
    ///
    /// Transport failures, as [`Client::request`].
    pub fn pipeline(
        &mut self,
        graph_json: &str,
        mode: WireMode,
        fused: bool,
        inputs: Vec<ArrayPayload>,
        outputs: Vec<u32>,
    ) -> std::io::Result<Response> {
        self.request(
            None,
            RequestBody::Pipeline(PipelineRequest {
                graph: graph_json.to_string(),
                mode,
                fused,
                inputs,
                outputs,
            }),
        )
    }

    /// Fetches server-wide observability counters (cache hit rates, queue
    /// depth, worker count).
    ///
    /// # Errors
    ///
    /// Transport failures, as [`Client::request`].
    pub fn metrics(&mut self) -> std::io::Result<Response> {
        self.request(None, RequestBody::Metrics)
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport failures, as [`Client::request`].
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.request(None, RequestBody::Shutdown)
    }
}
