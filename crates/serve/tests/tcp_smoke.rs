//! End-to-end TCP round trip on loopback: a real listener, a real client
//! socket, newline-delimited JSON both ways, and a clean shutdown of the
//! IO loop — the in-process twin of the CI server-smoke step.

use infs_serve::{demo, serve_reactor, ArrayPayload, Client, ServeConfig, Server, WireMode};
use infs_shard::ReactorConfig;
use std::net::TcpListener;
use std::sync::Arc;

#[test]
fn tcp_round_trip_and_clean_shutdown() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let accept = {
        let server = server.clone();
        std::thread::spawn(move || serve_reactor(&server, listener, &ReactorConfig::default()))
    };

    let mut client = Client::connect(addr, "tcp-test").unwrap();
    let r = client.ping().unwrap();
    assert!(r.ok);

    // Compile, then execute and check the arithmetic through the socket.
    let n = 128u64;
    let r = client.compile(demo::scale(n), vec![], true).unwrap();
    assert!(r.ok, "compile failed: {:?}", r.error);
    assert!(!r.stats.artifact_cache_hit);
    let artifact = r.artifact.unwrap();

    let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let r = client
        .execute(
            &artifact,
            "scale",
            vec![],
            vec![2.5],
            WireMode::InfS,
            vec![ArrayPayload {
                array: 0,
                data: input.clone(),
            }],
            vec![0],
        )
        .unwrap();
    assert!(r.ok, "execute failed: {:?}", r.error);
    let out: Vec<f32> = input.iter().map(|x| x * 2.5).collect();
    assert_eq!(r.outputs[0].data, out);
    assert!(r.stats.cycles > 0);
    assert!(r.stats.executed.is_some());

    // A second, separate connection sees the same artifact (shared cache).
    let mut second = Client::connect(addr, "tcp-test-2").unwrap();
    let r = second.compile(demo::scale(n), vec![], true).unwrap();
    assert!(r.ok);
    assert!(
        r.stats.artifact_cache_hit,
        "second tenant must hit the cache"
    );
    assert_eq!(r.artifact.as_deref(), Some(artifact.as_str()));

    // Malformed line: the connection answers with bad-request and stays up.
    use std::io::{BufRead, BufReader, Write};
    let raw = std::net::TcpStream::connect(addr).unwrap();
    let mut w = raw.try_clone().unwrap();
    let mut lines = BufReader::new(raw);
    w.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    lines.read_line(&mut line).unwrap();
    assert!(line.contains("bad-request"), "got: {line}");
    w.write_all(b"{\"id\":7,\"tenant\":\"raw\",\"body\":\"Ping\"}\n")
        .unwrap();
    line.clear();
    lines.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "got: {line}");

    // Graceful shutdown over the wire; the IO loop must return.
    let r = client.shutdown().unwrap();
    assert!(r.ok);
    accept.join().unwrap().unwrap();
    let stats = server.shutdown();
    assert!(stats.served >= 5);
}
