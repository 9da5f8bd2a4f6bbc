//! Shared by the `exp` driver's integration tests.

use std::process::Command;

/// The `exp` binary with the `NIID_*` output defaults cleared, so a
/// developer's shell cannot leak a trace, metrics or checkpoint path into
/// the child.
pub fn exp_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    for var in [
        "NIID_TRACE",
        "NIID_METRICS",
        "NIID_METRICS_PORT",
        "NIID_CHECKPOINT",
    ] {
        cmd.env_remove(var);
    }
    cmd
}
