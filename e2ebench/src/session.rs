//! Where a workload's fitted model lives while the workload runs: in the
//! benchmark's own process (fit-books, whose memory peak includes the fit)
//! or in a child process (the serving workloads, whose memory peak must
//! not). Either way the run asks it for evaluation passes between serving
//! slices, so the evaluation samples spread over the whole run.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use metadpa_obs::json::{self, JsonValue};

use crate::model::{self, Fitted, ModelPlan, Pass};
use crate::Ledger;

/// The request a model child answers with one [`Pass`] line.
pub const EVAL_REQUEST: &str = "eval";

pub enum Session {
    Local(Box<Fitted>),
    Child(ModelChild),
}

impl Session {
    /// Fits the model path in this process, saving the checkpoint to `ckpt`.
    pub fn local(
        plan: &ModelPlan,
        ckpt: &Path,
        ledger: &mut Ledger,
    ) -> Result<(Session, BTreeMap<String, f64>), String> {
        let (fitted, values) = model::fit(plan, ckpt, ledger)?;
        Ok((Session::Local(Box::new(fitted)), values))
    }

    /// Starts this executable with `args` as a model child, waits for its
    /// fit and folds the fit's operation counts into `ledger`.
    pub fn child(
        args: &[String],
        ledger: &mut Ledger,
    ) -> Result<(Session, BTreeMap<String, f64>), String> {
        let mut child = ModelChild::spawn(args)?;
        let v = child.read()?;
        ledger.attempted += v.get("attempted").and_then(|x| x.as_u64()).unwrap_or(0);
        ledger.failed += v.get("failed").and_then(|x| x.as_u64()).unwrap_or(1);
        for n in v.get("notes").and_then(|n| n.as_arr()).unwrap_or(&[]) {
            ledger.note(format!("model child: {}", n.as_str().unwrap_or("?")));
        }
        let Some(JsonValue::Obj(fields)) = v.get("values") else {
            return Err("the model child returned no values".into());
        };
        let values = fields.iter().filter_map(|(k, x)| Some((k.clone(), x.as_f64()?))).collect();
        Ok((Session::Child(child), values))
    }

    /// One evaluation pass of the fitted model.
    pub fn evaluate(&mut self) -> Result<Pass, String> {
        match self {
            Session::Local(fitted) => Ok(fitted.evaluate()),
            Session::Child(child) => child.request(EVAL_REQUEST).and_then(|v| Pass::from_json(&v)),
        }
    }

    /// Ends the session; a child writes its trace and exits.
    pub fn finish(self) -> Result<(), String> {
        match self {
            Session::Local(_) => Ok(()),
            Session::Child(child) => child.finish(),
        }
    }
}

/// A model child: it fits, prints its values, then answers each request
/// line on its standard input with one line, until the input closes.
pub struct ModelChild {
    proc: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ModelChild {
    fn spawn(args: &[String]) -> Result<ModelChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let mut proc = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting the model child: {e}"))?;
        let stdin = proc.stdin.take();
        let stdout = BufReader::new(proc.stdout.take().expect("stdout is piped"));
        Ok(ModelChild { proc, stdin, stdout })
    }

    fn read(&mut self) -> Result<JsonValue, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the model child: {e}"))?;
        if n == 0 {
            return Err("the model child exited early".into());
        }
        json::parse(line.trim()).map_err(|e| format!("model child output: {e}"))
    }

    fn request(&mut self, what: &str) -> Result<JsonValue, String> {
        use std::io::Write as _;
        let stdin = self.stdin.as_mut().ok_or("the model child is finished")?;
        writeln!(stdin, "{what}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the model child: {e}"))?;
        self.read()
    }

    fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.proc.wait().map_err(|e| format!("waiting for the model child: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the model child failed: {status}"))
        }
    }
}

impl Drop for ModelChild {
    /// A child not finished normally (an error path) is stopped and reaped.
    fn drop(&mut self) {
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
            let _ = self.proc.wait();
        }
    }
}
