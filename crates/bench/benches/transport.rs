//! Transport microbenches: wire codec throughput and loopback-TCP
//! request/reply latency for the frames the executor protocol actually
//! ships. Besides the Criterion run, every bench self-times a short
//! pass and the suite writes `BENCH_transport.json` (bench name, mean
//! ns, bytes moved) so CI can track the trajectory without parsing
//! Criterion's output directory.

use bytes::Bytes;
use criterion::{black_box, criterion_group, Criterion, Throughput};
use dp_bench::{time_sample, write_bench_json, BenchSample};
use sparklet::transport::executor::serve;
use sparklet::transport::wire::{decode_body, encode_body, WireMsg};
use sparklet::wire::{dial, read_frame, write_frame, Addr, Conn, Listener};
use sparklet::{Compression, Payload};

type Stream = Box<dyn Conn>;

/// Send one message; returns the bytes put on the wire.
fn send(stream: &mut Stream, msg: &WireMsg) -> u64 {
    write_frame(stream, &encode_body(msg)).expect("send")
}

/// Receive one message with the bytes taken off the wire.
fn recv(stream: &mut Stream) -> (WireMsg, u64) {
    read_frame(stream, decode_body).expect("recv")
}

/// A sealed 64 KiB payload frame (compressible, like real tile data).
fn frame_64k() -> Bytes {
    let body: Vec<u8> = (0..64 * 1024).map(|i| (i / 32) as u8).collect();
    Payload::seal(Bytes::from(body), Compression::Lz4).frame()
}

fn put_msg(frame: Bytes) -> WireMsg {
    WireMsg::ShufflePut {
        shuffle: 1,
        map_task: 2,
        reduce: 3,
        frame,
    }
}

/// Driver side of a loopback executor session: accepts the connection,
/// answers the handshake, and returns the stream ready for traffic.
fn loopback_executor() -> Stream {
    let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).expect("bind loopback");
    let addr = listener.addr().clone();
    std::thread::spawn(move || {
        let mut stream = dial(&addr).expect("connect");
        let _ = serve(&mut stream, 0);
    });
    let mut stream = listener.accept().expect("accept");
    let (hello, _) = recv(&mut stream);
    assert!(matches!(hello, WireMsg::Hello { node: 0 }));
    send(&mut stream, &WireMsg::HelloAck { node: 0 });
    stream
}

/// One staged put + fetch round trip; returns the bytes that crossed
/// the socket in both directions.
fn put_get_roundtrip(stream: &mut Stream, msg: &WireMsg) -> u64 {
    let mut moved = send(stream, msg);
    let (ack, n) = recv(stream);
    assert_eq!(ack, WireMsg::Ack);
    moved += n;
    moved += send(
        stream,
        &WireMsg::ShuffleGet {
            shuffle: 1,
            map_task: 2,
            reduce: 3,
        },
    );
    let (block, n) = recv(stream);
    assert!(matches!(block, WireMsg::Block { frame: Some(_) }));
    moved + n
}

fn heartbeat_roundtrip(stream: &mut Stream) -> u64 {
    let moved = send(stream, &WireMsg::Heartbeat { seq: 9 });
    let (ack, n) = recv(stream);
    assert!(matches!(ack, WireMsg::HeartbeatAck { seq: 9, .. }));
    moved + n
}

static SAMPLES: std::sync::Mutex<Vec<BenchSample>> = std::sync::Mutex::new(Vec::new());

fn record(sample: BenchSample) {
    SAMPLES.lock().expect("samples").push(sample);
}

fn bench_wire_codec(c: &mut Criterion) {
    let msg = put_msg(frame_64k());
    let body = encode_body(&msg);
    let mut group = c.benchmark_group("wire_codec");
    group.throughput(Throughput::Bytes(body.len() as u64));
    group.bench_function("encode_shuffle_put_64k", |b| {
        b.iter(|| encode_body(black_box(&msg)))
    });
    group.bench_function("decode_shuffle_put_64k", |b| {
        b.iter(|| decode_body(black_box(&body)).expect("decode"))
    });
    group.finish();
    record(time_sample(
        "wire_codec/encode_shuffle_put_64k",
        body.len() as u64,
        200,
        || {
            black_box(encode_body(black_box(&msg)));
        },
    ));
    record(time_sample(
        "wire_codec/decode_shuffle_put_64k",
        body.len() as u64,
        200,
        || {
            black_box(decode_body(black_box(&body)).expect("decode"));
        },
    ));
}

fn bench_loopback_tcp(c: &mut Criterion) {
    let msg = put_msg(frame_64k());
    let mut stream = loopback_executor();
    let moved = put_get_roundtrip(&mut stream, &msg);
    let mut group = c.benchmark_group("loopback_tcp");
    group.throughput(Throughput::Bytes(moved));
    group.bench_function("put_get_64k", |b| {
        b.iter(|| put_get_roundtrip(&mut stream, &msg))
    });
    group.bench_function("heartbeat", |b| b.iter(|| heartbeat_roundtrip(&mut stream)));
    group.finish();
    record(time_sample("loopback_tcp/put_get_64k", moved, 50, || {
        black_box(put_get_roundtrip(&mut stream, &msg));
    }));
    let hb = heartbeat_roundtrip(&mut stream);
    record(time_sample("loopback_tcp/heartbeat", hb, 200, || {
        black_box(heartbeat_roundtrip(&mut stream));
    }));
    send(&mut stream, &WireMsg::Shutdown);
    recv(&mut stream);
}

criterion_group!(benches, bench_wire_codec, bench_loopback_tcp);

fn main() {
    benches();
    let samples = SAMPLES.lock().expect("samples").clone();
    match write_bench_json("transport", &samples) {
        Ok(path) => eprintln!("wrote {} samples to {}", samples.len(), path.display()),
        Err(e) => eprintln!("BENCH_transport.json not written: {e}"),
    }
}
