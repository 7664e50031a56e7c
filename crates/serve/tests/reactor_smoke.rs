//! End-to-end smoke of the event-driven IO path (`DESIGN.md` §14): a real
//! `Server` behind `serve_reactor`, real sockets on loopback, the unchanged
//! wire protocol — and the shutdown-latency regression the reactor was
//! partly built for (the legacy accept loop napped 50 ms on `WouldBlock`).

use infs_serve::{
    demo, serve_reactor, ArrayPayload, Client, Response, ServeConfig, Server, WireError, WireMode,
};
use infs_shard::{ReactorConfig, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(
    cfg: ServeConfig,
    reactor: ReactorConfig,
) -> (
    std::net::SocketAddr,
    Arc<Server>,
    std::thread::JoinHandle<infs_shard::ReactorStats>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new(cfg));
    let io = {
        let server = server.clone();
        std::thread::spawn(move || serve_reactor(&server, listener, &reactor).expect("reactor"))
    };
    (addr, server, io)
}

#[test]
fn reactor_round_trip_many_connections_and_clean_shutdown() {
    let (addr, server, io) = start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        ReactorConfig::default(),
    );

    // The protocol is unchanged: the existing thin client just works.
    let mut clients: Vec<Client> = (0..16)
        .map(|i| Client::connect(addr, format!("tenant-{i}")).unwrap())
        .collect();
    for c in &mut clients {
        assert!(c.ping().unwrap().ok);
    }

    let n = 128u64;
    let r = clients[0].compile(demo::scale(n), vec![], true).unwrap();
    assert!(r.ok, "compile failed: {:?}", r.error);
    let artifact = r.artifact.unwrap();

    // Every connection executes; arithmetic is checked through the socket.
    let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
    for c in &mut clients {
        let r = c
            .execute(
                &artifact,
                "scale",
                vec![],
                vec![2.0],
                WireMode::InfS,
                vec![ArrayPayload {
                    array: 0,
                    data: input.clone(),
                }],
                vec![0],
            )
            .unwrap();
        assert!(r.ok, "execute failed: {:?}", r.error);
        let expect: Vec<f32> = input.iter().map(|x| x * 2.0).collect();
        assert_eq!(r.outputs[0].data, expect);
    }

    // Malformed line: answered with bad-request, connection stays usable.
    let raw = TcpStream::connect(addr).unwrap();
    let mut w = raw.try_clone().unwrap();
    let mut r = BufReader::new(raw);
    w.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(line.contains("bad-request"), "got: {line}");

    // Shutdown over the wire: the Shutdown response itself must reach the
    // client (the reactor drains in-flight replies before exiting).
    let r = clients[0].shutdown().unwrap();
    assert!(r.ok);
    let stats = io.join().unwrap();
    assert_eq!(stats.accepted, 17);
    assert!(stats.lines >= 34);
    assert_eq!(stats.responses, stats.lines, "every line answered");
    let shutdown = server.shutdown();
    assert!(shutdown.served >= 34);
}

/// Satellite regression: with idle connections parked and no traffic, an
/// out-of-band `begin_shutdown` must take effect within a small multiple of
/// the poll interval — one interval for the watcher to notice, one drain
/// grace, and scheduling slack — not the legacy accept-nap stragglers.
#[test]
fn out_of_band_shutdown_latency_is_bounded() {
    let poll = Duration::from_millis(100);
    let (addr, server, io) = start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        ReactorConfig {
            poll_interval: poll,
            ..ReactorConfig::default()
        },
    );
    let _idle1 = std::net::TcpStream::connect(addr).unwrap();
    let _idle2 = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(30)); // let the reactor park

    let t0 = Instant::now();
    server.begin_shutdown();
    io.join().unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < 4 * poll,
        "shutdown took {elapsed:?}; bound is 4 × {poll:?}"
    );
    server.shutdown();
}

/// CI "Wire latency smoke". Neither a request arriving on a socket nor a
/// response completing on a worker waits for the poll timeout: with the
/// interval at a quarter second, a parked reactor still turns each round
/// trip around in milliseconds. (The timed sweep this replaced took up to
/// one interval per hop.)
#[test]
fn no_request_waits_on_the_poll_interval() {
    let (addr, server, io) = start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        ReactorConfig {
            poll_interval: Duration::from_millis(250),
            ..ReactorConfig::default()
        },
    );
    let mut client = Client::connect(addr, "latency").unwrap();
    assert!(client.ping().unwrap().ok);
    std::thread::sleep(Duration::from_millis(50)); // let the reactor park

    for i in 0..20 {
        let t0 = Instant::now();
        assert!(client.ping().unwrap().ok);
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "round trip {i} took {took:?}"
        );
    }
    server.begin_shutdown();
    io.join().unwrap();
    server.shutdown();
}

/// A client that never sends a newline is cut off at `MAX_LINE_BYTES` with
/// one typed reply, and costs the other connections nothing but the reads.
#[test]
fn slow_loris_gets_one_bad_request_then_eof() {
    let (addr, server, io) = start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        ReactorConfig::default(),
    );
    let mut bystander = Client::connect(addr, "bystander").unwrap();
    assert!(bystander.ping().unwrap().ok);

    let loris = TcpStream::connect(addr).unwrap();
    let mut loris_r = BufReader::new(loris.try_clone().unwrap());
    let writer = std::thread::spawn(move || {
        let mut loris = loris;
        let block = vec![b'x'; 1 << 20];
        let mut left = MAX_LINE_BYTES + 1;
        while left > 0 {
            let n = left.min(block.len());
            loris.write_all(&block[..n]).unwrap();
            left -= n;
        }
        loris // keep the socket open: the server hangs up, not the client
    });
    let mut pings = 0;
    while !writer.is_finished() {
        assert!(bystander.ping().unwrap().ok);
        pings += 1;
    }
    let _loris = writer.join().unwrap();
    assert!(pings > 0);

    let mut reply = String::new();
    loris_r.read_line(&mut reply).unwrap();
    let response: Response = serde_json::from_str(reply.trim_end()).unwrap();
    assert!(!response.ok);
    assert_eq!(response.error.unwrap().kind, WireError::BAD_REQUEST);
    let mut rest = Vec::new();
    loris_r.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "exactly one reply, then EOF");

    assert!(bystander.ping().unwrap().ok);
    server.begin_shutdown();
    let stats = io.join().unwrap();
    assert_eq!(stats.lines, stats.responses, "the cut-off is not a line");
    server.shutdown();
}
