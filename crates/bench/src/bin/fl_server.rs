//! Distributed-mode coordinator: binds a TCP listener, waits for every
//! party process to register, then drives the standard `FedSim` round
//! loop with local training delegated to the connected `fl_party`
//! processes. The `RoundRecord` stream is bit-identical to an in-process
//! run of the same cell (see `EXPERIMENTS.md`, "Distributed mode").
//!
//! ```text
//! fl_server --parties 6 --rounds 4 --codec topk8 --addr-file /tmp/srv.addr \
//!           --checkpoint-dir /tmp/ckpt --json result.json
//! ```
//!
//! With `--addr-file` the bound address (`--port 0` picks an ephemeral
//! one) is published atomically; parties re-read the file on every
//! reconnect attempt, so a killed server can restart on a *different*
//! port, rewrite the file, and `--resume` from its checkpoint while the
//! original party processes find it again on their own.

use niid_bench::dist::{build_sim, DistArgs};
use niid_fl::engine::{RunOptions, Start};
use niid_fl::net::{Coordinator, NetConfig};
use niid_fl::trace::NoopSink;
use niid_json::ToJson;
use std::io::Write;

fn fail(msg: &str) -> ! {
    eprintln!("fl_server: {msg}");
    std::process::exit(1);
}

/// Publish `addr` with a write-then-rename so a party never reads a
/// half-written file.
fn write_addr_file(path: &str, addr: &str) {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, addr).unwrap_or_else(|e| fail(&format!("write {tmp}: {e}")));
    std::fs::rename(&tmp, path).unwrap_or_else(|e| fail(&format!("rename {tmp}: {e}")));
}

fn main() {
    let args = DistArgs::parse("fl_server");
    let sim = build_sim(&args);
    let fingerprint = sim.fingerprint();

    let mut coord = Coordinator::bind(
        &format!("127.0.0.1:{}", args.port),
        args.parties,
        fingerprint,
        NetConfig::default(),
    )
    .unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let addr = coord
        .local_addr()
        .unwrap_or_else(|e| fail(&format!("local addr: {e}")))
        .to_string();
    println!(
        "fl_server: listening on {addr} ({} parties expected)",
        args.parties
    );
    if let Some(path) = &args.addr_file {
        write_addr_file(path, &addr);
    }

    coord
        .wait_for_roster()
        .unwrap_or_else(|e| fail(&format!("roster: {e}")));
    println!("fl_server: roster complete, driving {} rounds", args.rounds);

    let result = sim
        .run_with(RunOptions {
            start: if args.resume {
                Start::Auto
            } else {
                Start::Fresh
            },
            stop_after: args.stop_after,
            coordinator: Some(&mut coord),
            ..RunOptions::new(&NoopSink)
        })
        .unwrap_or_else(|e| fail(&format!("run: {e}")));
    if let Some(stop_after) = args.stop_after {
        // Rehearse a coordinator crash: a prefix of the rounds ran, now
        // exit without sending Shutdown — from the parties' perspective
        // the connections just die, exactly like a kill.
        println!("fl_server: stopping after round {stop_after} (simulated crash)");
        return;
    }
    coord.shutdown_all();

    println!(
        "fl_server: done — final acc {:.4}, best {:.4}, {} bytes total",
        result.final_accuracy, result.best_accuracy, result.total_bytes
    );
    if let Some(path) = &args.json {
        let mut f = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
        f.write_all(result.to_json_pretty().as_bytes())
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        println!("(results written to {path})");
    }
}
