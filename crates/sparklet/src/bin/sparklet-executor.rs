//! The executor entrypoint: one subprocess per simulated cluster node.
//!
//! Launched by the driver's `ExecutorManager` with two environment
//! variables: `SPARKLET_NODE` (this executor's node index) and
//! `SPARKLET_CONNECT` (`tcp:<ip>:<port>` or `unix:<path>`; a Unix
//! path also names the node's segment directory, `<path>.seg/<node>`).
//! It connects back to the driver, handshakes, and serves the wire
//! protocol until an orderly `Shutdown` (exit 0), driver disconnect
//! (exit 0), or an I/O failure (exit 1). A `SIGKILL` from the chaos
//! harness ends it without any exit path at all — which is the point.

use std::process::ExitCode;

use sparklet::transport::executor::{serve, ExecutorState};
use sparklet::transport::segment;
use sparklet::wire::{dial, Addr};

fn run() -> Result<(), String> {
    let node: u64 = std::env::var("SPARKLET_NODE")
        .map_err(|_| "SPARKLET_NODE not set".to_string())?
        .parse()
        .map_err(|e| format!("SPARKLET_NODE: {e}"))?;
    let connect = std::env::var("SPARKLET_CONNECT")
        .map_err(|_| "SPARKLET_CONNECT not set (tcp:<ip>:<port> or unix:<path>)".to_string())?;
    let addr: Addr = connect
        .parse()
        .map_err(|e| format!("executor {node}: SPARKLET_CONNECT: {e}"))?;
    // Over a Unix socket the driver shares this host, and frames come
    // and go as files in this node's segment directory.
    let state = match &addr {
        Addr::Unix(path) => {
            ExecutorState::with_segments(segment::node_dir(&segment::root(path), node))
        }
        Addr::Tcp(_) => ExecutorState::new(),
    };
    let mut stream = dial(&addr).map_err(|e| format!("executor {node}: connect {addr}: {e}"))?;
    serve(&mut stream, node, state).map_err(|e| format!("executor {node}: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sparklet-executor: {e}");
            ExitCode::FAILURE
        }
    }
}
