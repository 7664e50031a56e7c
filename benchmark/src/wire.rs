//! What the two serve workloads share: an in-process `Server` behind
//! `serve_reactor` on a loopback port, the benchmark-owned wire client, and
//! request construction.

use infs_frontend::Kernel;
use infs_serve::{
    serve_reactor, ArrayPayload, CompileRequest, ExecuteRequest, PipelineRequest, Request,
    RequestBody, Response, ServeConfig, Server, WireMode,
};
use infs_shard::{ReactorConfig, ReactorStats};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Load-generating connections, one thread each: never more than this box
/// has cores, so the generator does not queue behind itself.
pub const CONNECTIONS: usize = 2;

pub struct Service {
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    reactor: JoinHandle<std::io::Result<ReactorStats>>,
}

impl Service {
    pub fn boot() -> Service {
        let server = Arc::new(Server::new(ServeConfig {
            workers: 2,
            tune: None,
            faults: None,
            ..ServeConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let dispatch = server.clone();
        let reactor = std::thread::spawn(move || {
            serve_reactor(&dispatch, listener, &ReactorConfig::default())
        });
        Service {
            server,
            addr,
            reactor,
        }
    }

    /// Closes admission, waits for the reactor and joins the workers.
    pub fn stop(self) -> ReactorStats {
        self.server.begin_shutdown();
        let stats = self
            .reactor
            .join()
            .expect("reactor thread does not panic")
            .expect("reactor exits cleanly");
        self.server.shutdown();
        stats
    }
}

/// One request line per `write_all`, `TCP_NODELAY`, and the reply returned
/// raw: the caller stamps the clock when the line has arrived and parses it
/// afterwards, so client-side JSON work never sits inside a latency.
pub struct WireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl WireClient {
    pub fn connect(addr: SocketAddr) -> WireClient {
        let writer = TcpStream::connect(addr).expect("server accepts");
        writer.set_nodelay(true).expect("TCP_NODELAY sets");
        let reader = BufReader::with_capacity(1 << 20, writer.try_clone().expect("socket clones"));
        WireClient { writer, reader }
    }

    /// Sends `line` (newline included) and blocks until the reply line is in.
    pub fn round_trip(&mut self, line: &[u8]) -> std::io::Result<Vec<u8>> {
        self.writer.write_all(line)?;
        let mut reply = Vec::new();
        if self.reader.read_until(b'\n', &mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply)
    }
}

pub fn parse_response(reply: &[u8]) -> Option<Response> {
    serde_json::from_str(std::str::from_utf8(reply).ok()?.trim_end()).ok()
}

/// Serialises a request to its wire line, newline included.
pub fn line(id: u64, body: RequestBody) -> Vec<u8> {
    let request = Request {
        id,
        tenant: "bench".into(),
        deadline_ms: None,
        body,
    };
    let mut l = serde_json::to_string(&request)
        .expect("requests serialise")
        .into_bytes();
    l.push(b'\n');
    l
}

pub fn compile_body(kernel: Kernel, optimize: bool) -> RequestBody {
    RequestBody::Compile(CompileRequest {
        kernel,
        representative_syms: vec![],
        optimize,
    })
}

pub fn execute_body(
    artifact: &str,
    region: &str,
    params: Vec<f32>,
    inputs: Vec<Vec<f32>>,
    output: u32,
) -> RequestBody {
    RequestBody::Execute(ExecuteRequest {
        artifact: Some(artifact.to_string()),
        binary: None,
        region: region.to_string(),
        syms: vec![],
        params,
        mode: WireMode::InfS,
        inputs: payloads(inputs),
        outputs: vec![output],
    })
}

pub fn pipeline_body(graph_json: &str, input: Vec<f32>, output: u32) -> RequestBody {
    RequestBody::Pipeline(PipelineRequest {
        graph: graph_json.to_string(),
        mode: WireMode::InfS,
        fused: true,
        inputs: payloads(vec![input]),
        outputs: vec![output],
    })
}

/// Arrays 0, 1, … in order: the demo kernels declare their inputs first.
fn payloads(inputs: Vec<Vec<f32>>) -> Vec<ArrayPayload> {
    inputs
        .into_iter()
        .enumerate()
        .map(|(i, data)| ArrayPayload {
            array: i as u32,
            data,
        })
        .collect()
}

/// True when `response` succeeded and its one output equals `want` bit for bit.
pub fn output_matches(response: &Response, want: &[f32]) -> bool {
    response.ok
        && response.outputs.len() == 1
        && response.outputs[0].data.len() == want.len()
        && response.outputs[0]
            .data
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}

/// One closed-loop exchange as a connection thread recorded it.
pub struct Exchange {
    /// Index of the operation in the window's fixed order.
    pub op: usize,
    pub sent: Instant,
    pub arrived: Instant,
    /// The Compile reply of a Compile+Execute pair, unparsed; otherwise empty.
    pub compiled: Vec<u8>,
    /// The last reply of the operation, unparsed.
    pub reply: Vec<u8>,
}
