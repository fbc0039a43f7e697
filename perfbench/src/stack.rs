//! The serving stack under test, wired the way `prj-serve` wires it:
//! standalone (`EngineBuilder` → `Session` → `SubscriptionManager` /
//! `Subscribing` → `Server::bind`) or coordinator (spawned
//! `prj-serve --worker` processes → `Coordinator` → the same front-end).
//! Every setting is `prj-serve`'s default except the shard count, which is
//! a property of the workload.

use crate::trace::{Spanned, Tracer};
use prj_api::{ApiClient, ClientConfig, Request, Response, StatsReport};
use prj_cluster::{ClusterTopology, Coordinator};
use prj_engine::{Engine, EngineBuilder, RequestHandler, Server, Session};
use prj_sub::{Subscribing, SubscriptionManager};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `prj-serve`'s default cap on standing queries per process.
const MAX_SUBSCRIPTIONS: usize = 1024;

/// How long a client waits on one answer before the operation counts as
/// failed (a typed timeout).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

/// Where the stack runs its engine.
#[derive(Debug, Clone)]
pub enum Wiring {
    /// One in-process server.
    Standalone {
        /// Spatial shards per relation.
        shards: usize,
    },
    /// An in-process coordinator over spawned worker processes.
    Cluster {
        /// Spatial shards per relation.
        shards: usize,
        /// Worker processes to spawn.
        workers: usize,
        /// The `prj-serve` executable.
        exe: PathBuf,
    },
}

/// One spawned `prj-serve --worker` process; killed and reaped on drop.
struct Worker {
    child: Child,
    drain: Option<JoinHandle<()>>,
}

impl Worker {
    /// Spawns `exe --worker` on an ephemeral loopback port and waits for its
    /// "listening on ADDR" line. The rest of its stdout is drained so it
    /// never blocks on a full pipe.
    fn spawn(exe: &Path, shards: usize) -> Result<(Worker, String), String> {
        let mut child = Command::new(exe)
            .args([
                "--worker",
                "--addr",
                "127.0.0.1:0",
                "--shards",
                &shards.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
            line.split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string)
        });
        let drain = std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        let mut worker = Worker {
            child,
            drain: Some(drain),
        };
        match addr {
            Some(addr) => Ok((worker, addr)),
            None => {
                worker.stop();
                Err("worker exited before announcing its address".to_string())
            }
        }
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A running stack plus the in-process handles the benchmark reads its
/// counters from.
pub struct Stack {
    server: Option<Server>,
    /// The engine answering queries (the coordinator's, when clustered).
    pub engine: Arc<Engine>,
    /// The standing-query manager.
    pub manager: Arc<SubscriptionManager>,
    coordinator: Option<Arc<Coordinator>>,
    workers: Vec<Worker>,
}

fn bind<H: RequestHandler + 'static>(
    handler: Arc<H>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Server, String> {
    let bound = match tracer {
        Some(tracer) => Server::bind(
            "127.0.0.1:0",
            Arc::new(Spanned::new(handler, Arc::clone(tracer))),
        ),
        None => Server::bind("127.0.0.1:0", handler),
    };
    bound.map_err(|e| format!("bind: {e}"))
}

impl Stack {
    /// Starts the stack; with a tracer, the handler is wrapped in
    /// [`Spanned`].
    pub fn start(wiring: &Wiring, tracer: Option<&Arc<Tracer>>) -> Result<Stack, String> {
        match wiring {
            Wiring::Standalone { shards } => {
                let engine = Arc::new(EngineBuilder::default().shards(*shards).build());
                let manager = Arc::new(SubscriptionManager::new(
                    Session::new(Arc::clone(&engine)),
                    MAX_SUBSCRIPTIONS,
                ));
                let session = Arc::new(Session::new(Arc::clone(&engine)));
                let handler = Arc::new(Subscribing::new(session, Arc::clone(&manager)));
                Ok(Stack {
                    server: Some(bind(handler, tracer)?),
                    engine,
                    manager,
                    coordinator: None,
                    workers: Vec::new(),
                })
            }
            Wiring::Cluster {
                shards,
                workers,
                exe,
            } => {
                let mut spawned = Vec::new();
                let mut addrs = Vec::new();
                for _ in 0..*workers {
                    let (worker, addr) = Worker::spawn(exe, *shards)?;
                    spawned.push(worker);
                    addrs.push(addr);
                }
                let topology =
                    ClusterTopology::new(addrs, *shards, 1).map_err(|e| e.to_string())?;
                let coordinator = Arc::new(
                    Coordinator::builder(topology)
                        .build()
                        .map_err(|e| format!("coordinator: {e}"))?,
                );
                let engine = Arc::clone(coordinator.engine());
                let manager = Arc::new(SubscriptionManager::new(
                    Session::new(Arc::clone(&engine)),
                    MAX_SUBSCRIPTIONS,
                ));
                let handler = Arc::new(Subscribing::new(
                    Arc::clone(&coordinator),
                    Arc::clone(&manager),
                ));
                Ok(Stack {
                    server: Some(bind(handler, tracer)?),
                    engine,
                    manager,
                    coordinator: Some(coordinator),
                    workers: spawned,
                })
            }
        }
    }

    /// Opens connection `conn` and negotiates `prj/2`.
    pub fn connect(&self, conn: usize, tracer: Option<&Arc<Tracer>>) -> Result<ApiClient, String> {
        let addr = self.server.as_ref().expect("running server").local_addr();
        let mut client =
            ApiClient::connect_with(addr, &ClientConfig::with_timeouts(CLIENT_TIMEOUT))
                .map_err(|e| format!("connect: {e}"))?;
        if let Some(tracer) = tracer {
            tracer.expect_hello(conn);
        }
        client.negotiate().map_err(|e| format!("negotiate: {e}"))?;
        Ok(client)
    }

    /// The stats report a client would get, including, on a coordinator,
    /// the workers' per-shard counters.
    pub fn stats(&self) -> StatsReport {
        let response = match &self.coordinator {
            Some(coordinator) => coordinator.dispatch_one(Request::Stats),
            None => Session::new(Arc::clone(&self.engine)).handle(Request::Stats),
        };
        match response {
            Response::Stats(report) => report,
            other => panic!("stats request answered {other:?}"),
        }
    }

    /// Sum over every series named `name` of the serving engine's metrics.
    pub fn metric(&self, name: &str) -> f64 {
        self.engine
            .metrics_samples()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Peak resident memory of the serving processes, MiB: this process
    /// (which hosts the server or coordinator) plus every worker.
    pub fn peak_rss_mb(&self) -> f64 {
        let own = vm_hwm_kib("self").unwrap_or(0);
        let workers: u64 = self
            .workers
            .iter()
            .filter_map(|w| vm_hwm_kib(&w.child.id().to_string()))
            .sum();
        (own + workers) as f64 / 1024.0
    }

    /// Stops accepting, then stops the workers. Connection threads end when
    /// their clients hang up, so drop every client first.
    pub fn stop(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.manager.quiesce();
        self.coordinator = None;
        self.workers.clear();
    }
}

/// `VmHWM` (peak resident set) of `/proc/<pid>`, KiB.
fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}
