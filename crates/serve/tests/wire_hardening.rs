//! Seeded wire-decode hardening: hostile request lines, derived from valid
//! `demo` requests, through a real socket into `serve_reactor`. Nothing a
//! client can put on a line may panic a thread, hang the connection, or earn
//! anything but exactly one `Response` — a typed error where the line is not
//! a request. (`reactor_smoke::slow_loris_…` covers the line that never
//! ends.)

use infs_faults::mix64;
use infs_serve::{
    demo, serve_reactor, ArrayPayload, CompileRequest, ExecuteRequest, PipelineRequest, Request,
    RequestBody, Response, ServeConfig, Server, WireError, WireMode,
};
use infs_shard::{ReactorConfig, ReactorStats};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const SEED: u64 = 0xC0FFEE;
const LINES: u64 = 400;
/// Elements in the demo arrays.
const N: u64 = 64;

const TYPED: [&str; 10] = [
    WireError::BACKPRESSURE,
    WireError::TIMEOUT,
    WireError::SHUTTING_DOWN,
    WireError::COMPILE,
    WireError::UNKNOWN_ARTIFACT,
    WireError::UNKNOWN_REGION,
    WireError::BAD_REQUEST,
    WireError::EXECUTION,
    WireError::WORKER_FAULT,
    WireError::SHARD_DOWN,
];

struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    /// One line out, one line back, parsed. A reply that never comes fails
    /// the read timeout instead of hanging the suite.
    fn round_trip(&mut self, line: &[u8]) -> Response {
        assert!(!line.contains(&b'\n'));
        self.writer.write_all(line).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("a reply arrives");
        assert!(n > 0, "server closed the connection");
        serde_json::from_str(reply.trim_end())
            .unwrap_or_else(|e| panic!("reply is not a Response ({e}): {reply}"))
    }
}

fn line(id: u64, body: RequestBody) -> String {
    serde_json::to_string(&Request {
        id,
        tenant: "fuzz".into(),
        deadline_ms: None,
        body,
    })
    .unwrap()
}

/// How a mutated line may be answered.
#[derive(Debug, PartialEq)]
enum Expect {
    /// Not a request whatever else it is: a typed error, nothing run.
    Error,
    /// May still decode as a request; then any well-formed answer will do.
    Any,
}

/// `valid` with its `"id"` value replaced by `token`.
fn with_id(valid: &str, token: &str) -> String {
    let at = valid.find("\"id\":").expect("every request has an id") + 5;
    let digits = valid[at..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}{token}{}", &valid[..at], &valid[at + digits..])
}

fn mutate(valid: &str, case: u64) -> (Vec<u8>, Expect) {
    let roll = |k: u64, n: u64| mix64(SEED, case, k) % n;
    let bytes = valid.as_bytes();
    match roll(0, 6) {
        // Truncated: an object cut short of its closing brace never parses.
        0 => {
            let cut = 1 + roll(1, bytes.len() as u64 - 1) as usize;
            (bytes[..cut].to_vec(), Expect::Error)
        }
        // Oversized: a field far larger than any client would send.
        1 => match roll(1, 4) {
            0 => {
                let digits = "9".repeat(5000);
                let huge = valid.replacen("\"id\":", &format!("\"id\":{digits}"), 1);
                (huge.into_bytes(), Expect::Error)
            }
            1 => {
                let tenant = "x".repeat(256 << 10);
                let huge = valid.replacen("\"fuzz\"", &format!("\"{tenant}\""), 1);
                (huge.into_bytes(), Expect::Any)
            }
            2 => {
                let extra = "1.5,".repeat(100_000);
                let huge = valid.replacen("\"data\":[", &format!("\"data\":[{extra}"), 1);
                (huge.into_bytes(), Expect::Any)
            }
            _ => {
                let pad = " ".repeat(1 << 20);
                (format!("{pad}{valid}{pad}").into_bytes(), Expect::Any)
            }
        },
        // Deeply nested: recursion depth is the attacker's to choose.
        2 => {
            const DEPTH: usize = 10_000;
            let nest = match roll(1, 3) {
                0 => "[".repeat(DEPTH),
                1 => "{\"a\":".repeat(DEPTH),
                _ => format!("{}{}", "[".repeat(DEPTH), "]".repeat(DEPTH)),
            };
            let nested = match roll(2, 2) {
                0 => nest,
                _ => valid.replacen("\"body\":", &format!("\"body\":{nest},\"was\":"), 1),
            };
            (nested.into_bytes(), Expect::Error)
        }
        // Not UTF-8: a few bytes overwritten with continuation, overlong and
        // out-of-range lead bytes.
        3 => {
            let mut raw = bytes.to_vec();
            for k in 0..=roll(1, 4) {
                let at = roll(2 + 2 * k, raw.len() as u64) as usize;
                raw[at] = [0x80, 0xbf, 0xc0, 0xf5, 0xff][roll(3 + 2 * k, 5) as usize];
            }
            (raw, Expect::Any)
        }
        // Numbers: outside RFC 8259's grammar, outside the field's range
        // (an id is a u64), or long enough that only the scanner's own
        // bounds stand between them and an overflow.
        4 => {
            let long = "7".repeat(400);
            let tiny = format!("0.{}1", "0".repeat(400)); // underflows to 0.0
            let outside_the_grammar = [
                "+1", "01", "-01", ".5", "1.", "1.e3", "-", "1e", "1e+", "0x1f",
            ];
            let not_a_u64 = [
                "18446744073709551616",
                "-1",
                "1.5",
                "1e30",
                "1e999999999",
                "-1e999999999",
                "1e99999999999999999999",
                "4e-1",
                &long,
            ];
            let floats = [
                "1e999999999",
                "-1e999999999",
                "1e-999999999",
                &long,
                &tiny,
                "-0",
                "0e0",
            ];
            match roll(1, 3) {
                0 => (
                    with_id(valid, outside_the_grammar[roll(2, 10) as usize]).into_bytes(),
                    Expect::Error,
                ),
                1 => (
                    with_id(valid, not_a_u64[roll(2, 9) as usize]).into_bytes(),
                    Expect::Error,
                ),
                // Any of these is an `f32` (±inf, ±0, or 7.7…e399 → inf); what
                // the request then means is for validation to say.
                _ if valid.contains("\"data\":[") => {
                    let extra = format!("\"data\":[{},", floats[roll(2, 7) as usize]);
                    (
                        valid.replacen("\"data\":[", &extra, 1).into_bytes(),
                        Expect::Any,
                    )
                }
                // `1e-999999999` is 0.0, and 0.0 is an id.
                _ => (
                    with_id(valid, floats[roll(2, 5) as usize]).into_bytes(),
                    Expect::Any,
                ),
            }
        }
        // Escapes the parser must refuse: unpaired and mispaired surrogates,
        // short and non-hex `\u`, an unknown escape.
        _ => {
            let escape = [
                "\\ud800",
                "\\ud800\\u0041",
                "\\udbff\\ue000",
                "\\udc00",
                "\\u12",
                "\\uzzzz",
                "\\q",
            ][roll(1, 7) as usize];
            let bad = valid.replacen("\"fuzz\"", &format!("\"fu{escape}zz\""), 1);
            (bad.into_bytes(), Expect::Error)
        }
    }
}

/// A two-worker server behind the reactor, one connection to it, and the
/// compile line for `demo::scale(64)` with its (successful) reply.
fn serve() -> (
    Arc<Server>,
    JoinHandle<ReactorStats>,
    Wire,
    String,
    Response,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let io = {
        let server = server.clone();
        std::thread::spawn(move || {
            serve_reactor(&server, listener, &ReactorConfig::default()).expect("reactor")
        })
    };
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut wire = Wire {
        writer: stream.try_clone().unwrap(),
        reader: BufReader::new(stream),
    };
    let compile = line(
        1,
        RequestBody::Compile(CompileRequest {
            kernel: demo::scale(N),
            representative_syms: vec![],
            optimize: true,
        }),
    );
    let compiled = wire.round_trip(compile.as_bytes());
    assert!(compiled.ok, "{:?}", compiled.error);
    (server, io, wire, compile, compiled)
}

fn execute_scale(id: u64, compiled: &Response) -> String {
    line(
        id,
        RequestBody::Execute(ExecuteRequest {
            artifact: compiled.artifact.clone(),
            binary: None,
            region: "scale".into(),
            syms: vec![],
            params: vec![2.0],
            mode: WireMode::InfS,
            inputs: vec![ArrayPayload {
                array: 0,
                data: (0..N).map(|i| i as f32).collect(),
            }],
            outputs: vec![0],
        }),
    )
}

#[test]
fn hostile_lines_get_one_typed_reply_each_and_the_server_lives() {
    let (server, io, mut wire, compile, compiled) = serve();

    // The valid requests everything is derived from, each checked first.
    let input = ArrayPayload {
        array: 0,
        data: (0..N).map(|i| i as f32).collect(),
    };
    let valid = [
        line(2, RequestBody::Ping),
        line(3, RequestBody::Health),
        compile,
        execute_scale(4, &compiled),
        line(
            5,
            RequestBody::Pipeline(PipelineRequest {
                graph: demo::pipeline(N, 3.0).to_json().unwrap(),
                mode: WireMode::InfS,
                fused: true,
                inputs: vec![input],
                outputs: vec![3],
            }),
        ),
    ];
    for v in &valid {
        let r = wire.round_trip(v.as_bytes());
        assert!(r.ok, "{:?}", r.error);
    }

    let mut refused = 0;
    for case in 0..LINES {
        let base = &valid[(mix64(SEED, case, 99) % valid.len() as u64) as usize];
        let (hostile, expect) = mutate(base, case);
        let r = wire.round_trip(&hostile);
        match &r.error {
            None => assert!(r.ok && expect == Expect::Any, "case {case}: accepted"),
            Some(e) => {
                assert!(!r.ok, "case {case}");
                assert!(TYPED.contains(&e.kind.as_str()), "case {case}: {e:?}");
                if expect == Expect::Error {
                    assert_eq!(e.kind, WireError::BAD_REQUEST, "case {case}: {e:?}");
                }
                refused += 1;
            }
        }
    }
    assert!(refused > LINES / 2, "only {refused} lines were refused");

    // One reply per line, no more: the next reply is to the next request.
    let pong = wire.round_trip(line(777, RequestBody::Ping).as_bytes());
    assert!(pong.ok && pong.id == 777, "{pong:?}");
    assert_eq!(server.worker_faults(), 0, "a worker panicked");

    server.begin_shutdown();
    let stats = io.join().expect("the reactor thread did not panic");
    assert_eq!(stats.lines, stats.responses);
    server.shutdown();
}

/// Integer fields are range-checked where they are read: `4294967298` is not
/// array 2, `-1` is not a deadline, and the answer is a typed `bad-request`
/// — while every spelling of an in-range integer, `0.0` and `2e0` included,
/// is still the request it always was.
#[test]
fn out_of_range_integers_are_bad_requests_and_in_range_ones_still_run() {
    let (server, io, mut wire, _, compiled) = serve();
    let valid = execute_scale(9, &compiled);
    let reference = wire.round_trip(valid.as_bytes());
    assert!(reference.ok, "{:?}", reference.error);

    for (field, spelling) in [
        ("\"outputs\":[0]", "\"outputs\":[0.0]"),
        ("\"outputs\":[0]", "\"outputs\":[0e0]"),
        ("\"outputs\":[0]", "\"outputs\":[-0]"),
        ("\"array\":0", "\"array\":0.0"),
        ("\"id\":9", "\"id\":9.0"),
        ("\"id\":9", "\"id\":0.9e1"),
        ("\"deadline_ms\":null", "\"deadline_ms\":6e4"),
    ] {
        assert!(valid.contains(field), "{field}");
        let r = wire.round_trip(valid.replacen(field, spelling, 1).as_bytes());
        assert!(r.ok && r.id == 9, "{spelling}: {:?}", r.error);
        assert_eq!(r.outputs[0].data, reference.outputs[0].data, "{spelling}");
    }
    for (field, spelling) in [
        ("\"outputs\":[0]", "\"outputs\":[4294967296]"),
        ("\"outputs\":[0]", "\"outputs\":[4294967298]"),
        ("\"outputs\":[0]", "\"outputs\":[-1]"),
        ("\"outputs\":[0]", "\"outputs\":[1e30]"),
        ("\"outputs\":[0]", "\"outputs\":[0.5]"),
        ("\"array\":0", "\"array\":4294967296"),
        ("\"array\":0", "\"array\":-4294967296"),
        ("\"id\":9", "\"id\":18446744073709551616"),
        ("\"id\":9", "\"id\":-9"),
        ("\"deadline_ms\":null", "\"deadline_ms\":-1"),
        ("\"deadline_ms\":null", "\"deadline_ms\":1e20"),
        ("\"syms\":[]", "\"syms\":[9223372036854775808]"),
        ("\"syms\":[]", "\"syms\":[-9223372036854775809]"),
    ] {
        assert!(valid.contains(field), "{field}");
        let r = wire.round_trip(valid.replacen(field, spelling, 1).as_bytes());
        let e = r.error.unwrap_or_else(|| panic!("{spelling} was accepted"));
        assert_eq!(e.kind, WireError::BAD_REQUEST, "{spelling}: {e:?}");
        assert!(
            e.message.contains("unparseable request"),
            "{spelling}: {e:?}"
        );
    }
    assert_eq!(server.worker_faults(), 0, "a worker panicked");

    server.begin_shutdown();
    let stats = io.join().expect("the reactor thread did not panic");
    assert_eq!(stats.lines, stats.responses);
    server.shutdown();
}

/// An inline `binary` is outside input: its regions may declare different
/// array tables, which no compiled artifact does. Whichever region the
/// request names — and whichever table its inputs happen to fit — the answer
/// is a typed `bad-request`, never a `write_array` panic surfacing as
/// `worker-fault`; a lone region of the same binary is served.
#[test]
fn an_inline_binary_whose_regions_disagree_is_a_bad_request() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let compile = |k| infs_isa::Compiler::default().compile(k, &[]).unwrap();
    let inline = |regions: Vec<infs_isa::CompiledRegion>, region: &str, inputs: &[usize]| {
        let mut binary = infs_isa::FatBinary::new();
        for r in regions {
            binary.push(r);
        }
        let payload = |(i, &len): (usize, &usize)| ArrayPayload {
            array: i as u32,
            data: vec![1.0; len],
        };
        server.call(Request {
            id: 1,
            tenant: "fuzz".into(),
            deadline_ms: None,
            body: RequestBody::Execute(ExecuteRequest {
                artifact: None,
                binary: Some(binary.to_json().unwrap()),
                region: region.into(),
                syms: vec![],
                params: vec![2.0],
                mode: WireMode::InfS,
                inputs: inputs.iter().enumerate().map(payload).collect(),
                outputs: vec![0],
            }),
        })
    };
    // scale: one array of 64; vec_add: three arrays of 32.
    let both = || vec![compile(demo::scale(64)), compile(demo::vec_add(32))];
    for (region, inputs) in [
        ("scale", &[64][..]),
        ("scale", &[32, 32]),
        ("vec_add", &[32, 32]),
        ("vec_add", &[64]),
    ] {
        let r = inline(both(), region, inputs);
        let e = r.error.expect("refused");
        assert_eq!(e.kind, WireError::BAD_REQUEST, "{region} {inputs:?}: {e:?}");
        assert!(e.message.contains("different array table"), "{e:?}");
    }
    let r = inline(vec![compile(demo::vec_add(32))], "vec_add", &[32, 32]);
    assert!(r.ok, "{:?}", r.error);
    let r = inline(vec![compile(demo::vec_add(32))], "vec_add", &[64]);
    assert_eq!(r.error.expect("refused").kind, WireError::BAD_REQUEST);
    assert_eq!(server.worker_faults(), 0, "a worker panicked");
    server.shutdown();
}
