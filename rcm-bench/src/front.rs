//! The front doors, untraced: the batch runner over spec directories and
//! the report server over TCP loopback.

use dht_experiments::output::{sanitize_stem, ReportMode};
use dht_experiments::spec::ScenarioSpec;
use dht_scenario::{run_directory, BatchOptions, ReportServer, Request, RequestEnvelope};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// One spec of a batch workload, in a directory of its own so that each
/// report is one `run_directory` call and has its own latency.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// The spec's name (also its report's file stem).
    pub name: String,
    /// The spec file.
    pub spec_file: PathBuf,
    /// The directory holding only `spec_file`.
    pub spec_dir: PathBuf,
    /// Where `run_directory` writes the report and manifest.
    pub out_dir: PathBuf,
}

impl BatchSpec {
    /// The report file `run_directory` writes.
    #[must_use]
    pub fn report_file(&self) -> PathBuf {
        self.out_dir
            .join(format!("{}.json", sanitize_stem(&self.name)))
    }
}

/// Writes each spec into `root/specs/<name>/<name>.json`.
///
/// # Errors
///
/// Returns the I/O error of creating a directory or writing a file.
pub fn prepare(root: &Path, specs: &[ScenarioSpec]) -> io::Result<Vec<BatchSpec>> {
    specs
        .iter()
        .map(|spec| {
            let stem = sanitize_stem(&spec.name);
            let spec_dir = root.join("specs").join(&stem);
            std::fs::create_dir_all(&spec_dir)?;
            let spec_file = spec_dir.join(format!("{stem}.json"));
            std::fs::write(&spec_file, spec.to_json_pretty())?;
            Ok(BatchSpec {
                name: spec.name.clone(),
                spec_file,
                spec_dir,
                out_dir: root.join("reports").join(&stem),
            })
        })
        .collect()
}

/// What one pass over a batch workload's specs produced.
#[derive(Debug, Clone, Default)]
pub struct BatchPass {
    /// Pass wall time, seconds.
    pub wall_s: f64,
    /// Per-spec `run_directory` latency, seconds, in spec order.
    pub latencies_s: Vec<f64>,
    /// Report bytes per spec, in spec order (empty when the spec failed).
    pub reports: Vec<Vec<u8>>,
    /// One message per failed spec.
    pub errors: Vec<String>,
}

/// Runs every spec through its own `run_directory` call at `threads`.
#[must_use]
pub fn batch_pass(specs: &[BatchSpec], threads: usize) -> BatchPass {
    let mut pass = BatchPass::default();
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(specs.len());
    for spec in specs {
        let options = BatchOptions {
            output_dir: spec.out_dir.clone(),
            threads: Some(threads),
            backend: None,
            mode: ReportMode::Compact,
        };
        let request = Instant::now();
        let outcome = run_directory(&spec.spec_dir, &options);
        pass.latencies_s.push(request.elapsed().as_secs_f64());
        outcomes.push(outcome);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    for (spec, outcome) in specs.iter().zip(outcomes) {
        let failure = match outcome {
            Err(err) => Some(err.to_string()),
            Ok(entries) => entries.iter().find_map(|entry| entry.error.clone()),
        };
        let bytes = match failure {
            Some(message) => {
                pass.errors.push(format!("{}: {message}", spec.name));
                Vec::new()
            }
            None => std::fs::read(spec.report_file()).unwrap_or_else(|err| {
                pass.errors
                    .push(format!("{}: reading report: {err}", spec.name));
                Vec::new()
            }),
        };
        pass.reports.push(bytes);
    }
    pass
}

/// The wire form of request `id`: one JSON line, newline included.
#[must_use]
pub fn request_line(id: u64, request: Request) -> String {
    let mut line =
        serde_json::to_string(&RequestEnvelope { id, request }).expect("requests serialize");
    line.push('\n');
    line
}

/// One client connection to a report server, optionally owning the
/// server's thread.
pub struct ServerSession {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    server: Option<JoinHandle<io::Result<()>>>,
}

impl ServerSession {
    /// Starts a `ReportServer` with the given engine thread budget on an
    /// ephemeral loopback port (through `serve_listener`, the TCP front
    /// door) and connects to it.
    ///
    /// # Errors
    ///
    /// Returns the bind, spawn or connect error.
    pub fn start(threads: usize) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::Builder::new()
            .name("report-server".to_owned())
            .spawn(move || ReportServer::new(threads).serve_listener(&listener))?;
        let mut session = ServerSession::connect(addr)?;
        session.server = Some(server);
        Ok(session)
    }

    /// Connects to a server listening on `addr`.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(ServerSession {
            addr,
            reader,
            writer,
            server: None,
        })
    }

    /// Sends one request line and waits for its response (closed loop).
    /// Returns the client-side latency in seconds and the response without
    /// its newline.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and a closed connection.
    pub fn exchange(&mut self, line: &str) -> io::Result<(f64, String)> {
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let latency = start.elapsed().as_secs_f64();
        if response.ends_with('\n') {
            response.pop();
        }
        Ok((latency, response))
    }

    /// Asks the server to shut down and waits for its thread, if this
    /// session owns it, to end.
    ///
    /// # Errors
    ///
    /// Returns the shutdown exchange's I/O error, or the server's own error.
    pub fn shutdown(mut self) -> io::Result<()> {
        // On a failed exchange `Drop` stops the server another way.
        self.exchange(&request_line(0, Request::Shutdown))?;
        self.join()
    }

    fn join(&mut self) -> io::Result<()> {
        match self.server.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| io::Error::other("report server thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for ServerSession {
    fn drop(&mut self) {
        if self.server.is_some() {
            // Abandoned on an error path: end this connection, then shut
            // the accept loop down from a fresh one so the thread can be
            // joined.
            let _ = self.writer.shutdown(std::net::Shutdown::Both);
            if let Ok(mut stopper) = TcpStream::connect(self.addr) {
                let _ = stopper.write_all(request_line(0, Request::Shutdown).as_bytes());
                let _ = BufReader::new(stopper).read_line(&mut String::new());
            }
            let _ = self.join();
        }
    }
}

/// The `{"id":N,"ok":` prefix of a successful response, and the payload
/// after it (without the closing brace).
#[must_use]
pub fn ok_payload(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":")?;
    let start = rest.find(",\"ok\":")? + ",\"ok\":".len();
    rest[start..].strip_suffix('}')
}
