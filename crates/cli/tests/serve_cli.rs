//! End-to-end tests of `safeflow serve` through the real binary: daemon
//! lifecycle, client mode, byte-identity with one-shot `check`, and the
//! SIGTERM drain path. The deeper robustness drills (overload, faults,
//! SIGKILL) live in `crates/serve/tests/serve.rs` and the `serve-smoke`
//! harness.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn safeflow() -> Command {
    Command::new(env!("CARGO_BIN_EXE_safeflow"))
}

struct Temp {
    root: PathBuf,
}

impl Temp {
    fn new(tag: &str) -> Temp {
        let root =
            std::env::temp_dir().join(format!("safeflow-serve-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Temp { root }
    }
}

impl Drop for Temp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Spawns a daemon and waits for its port file; killed on drop unless
/// already waited for.
fn spawn_daemon(tmp: &Temp, extra: &[&str]) -> (Child, String) {
    let port_file = tmp.root.join("port");
    let mut cmd = safeflow();
    cmd.arg("serve")
        .arg("--port-file")
        .arg(&port_file)
        .arg("--store")
        .arg(tmp.root.join("store"))
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    let child = cmd.spawn().expect("spawn daemon");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            let s = s.trim().to_string();
            if !s.is_empty() {
                break s;
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote its port file");
        std::thread::sleep(Duration::from_millis(25));
    };
    (child, addr)
}

fn write_program(tmp: &Temp) -> PathBuf {
    let p = tmp.root.join("prog.c");
    // The Figure 2 example ships in the corpus crate, but this test sees
    // only the binary; a tiny annotated program with one real finding is
    // enough for an end-to-end identity check.
    std::fs::write(
        &p,
        r#"
        typedef struct { int control; } SHMData;
        SHMData *noncoreCtrl;
        void *shmat(int shmid, void *addr, int flags);
        void kill(int pid, int sig);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            noncoreCtrl = (SHMData *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(noncoreCtrl, sizeof(SHMData)))
                assume(noncore(noncoreCtrl))
            */
        }

        int main() {
            int pid;
            initComm();
            pid = noncoreCtrl->control;
            kill(pid, 9);
            return 0;
        }
        "#,
    )
    .unwrap();
    p
}

#[test]
fn client_mode_matches_one_shot_check_bytes_and_exit_code() {
    let tmp = Temp::new("client");
    let prog = write_program(&tmp);
    let one_shot = safeflow().arg("check").arg(&prog).output().expect("one-shot runs");

    let (mut daemon, addr) = spawn_daemon(&tmp, &[]);
    let via_daemon =
        safeflow().args(["serve", "--connect", &addr]).arg(&prog).output().expect("client runs");
    assert_eq!(via_daemon.status.code(), one_shot.status.code(), "exit codes must agree");
    assert_eq!(
        String::from_utf8_lossy(&via_daemon.stdout),
        String::from_utf8_lossy(&one_shot.stdout),
        "daemon-served report must be byte-identical to one-shot check"
    );

    // Ping answers clean; shutdown drains and the daemon process exits 0.
    let ping = safeflow().args(["serve", "--connect", &addr, "--ping"]).output().unwrap();
    assert_eq!(ping.status.code(), Some(0), "{}", String::from_utf8_lossy(&ping.stderr));
    let down = safeflow().args(["serve", "--connect", &addr, "--shutdown"]).output().unwrap();
    assert_eq!(down.status.code(), Some(0), "{}", String::from_utf8_lossy(&down.stderr));
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "drained daemon must exit 0, got {status}");
}

#[test]
fn sigterm_drains_the_daemon() {
    let tmp = Temp::new("sigterm");
    let (mut daemon, addr) = spawn_daemon(&tmp, &[]);
    // It is actually serving before we signal it.
    let ping = safeflow().args(["serve", "--connect", &addr, "--ping"]).output().unwrap();
    assert_eq!(ping.status.code(), Some(0));

    let kill = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("poll daemon") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "SIGTERM must drain to exit 0, got {status}");
}

#[test]
fn serve_help_prints_the_help_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = safeflow().args(["serve", flag]).output().expect("runs");
        assert_eq!(out.status.code(), Some(0), "serve {flag}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("--connect ADDR"), "serve {flag}: {text}");
    }
}

#[test]
fn serve_rejects_engine_fault_sites() {
    let out = safeflow().args(["serve", "--inject", "scc:0"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("serve-request"), "must point at the protocol sites: {err}");
}

#[test]
fn engine_mode_rejects_serve_fault_sites() {
    let out = safeflow().args(["--inject", "serve-request", "--fig2"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("serve"), "{err}");
}

#[test]
fn serve_takes_the_analysis_flags_of_check() {
    let tmp = Temp::new("flags");
    let prog = tmp.root.join("reboot.c");
    // The mode argument of `reboot` is critical only under the flag.
    std::fs::write(
        &prog,
        r#"
        typedef struct { int mode; } SHMData;
        SHMData *noncoreCtrl;
        void *shmat(int shmid, void *addr, int flags);
        void reboot(int magic, int mode);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            noncoreCtrl = (SHMData *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(noncoreCtrl, sizeof(SHMData)))
                assume(noncore(noncoreCtrl))
            */
        }

        int main() {
            int mode;
            initComm();
            mode = noncoreCtrl->mode;
            reboot(0, mode);
            return 0;
        }
        "#,
    )
    .unwrap();
    let flag = ["--critical-call", "reboot:1"];
    let one_shot = safeflow().arg("check").args(flag).arg(&prog).output().expect("one-shot runs");
    assert_eq!(one_shot.status.code(), Some(2), "the flag makes `reboot:arg1` an error");

    let (mut daemon, addr) = spawn_daemon(&tmp, &flag);
    let via_daemon =
        safeflow().args(["serve", "--connect", &addr]).arg(&prog).output().expect("client runs");
    assert_eq!(via_daemon.status.code(), one_shot.status.code(), "exit codes must agree");
    assert_eq!(
        String::from_utf8_lossy(&via_daemon.stdout),
        String::from_utf8_lossy(&one_shot.stdout),
        "daemon-served report must be byte-identical to one-shot check"
    );
    let down = safeflow().args(["serve", "--connect", &addr, "--shutdown"]).output().unwrap();
    assert_eq!(down.status.code(), Some(0), "{}", String::from_utf8_lossy(&down.stderr));
    assert!(daemon.wait().expect("daemon exits").success());
}
