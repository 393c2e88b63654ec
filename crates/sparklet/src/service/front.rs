//! The socket front end of the job service: the accept loop, the
//! per-connection handler and the blocking client. Everything here
//! speaks [`super::wire`] messages on one side and calls
//! [`JobService`]'s public methods on the other; it holds no job
//! state of its own beyond the ids a connection still has open.

use std::sync::atomic::Ordering;
use std::thread::JoinHandle;

use bytes::Bytes;

use super::wire::{self, SvcMsg};
use super::{JobId, JobService, JobState, JobStatusView, ServiceAddr, TenantId};
use crate::payload::{Compression, Payload};
use crate::wire::{dial, read_frame, write_frame, Conn, Listener};

/// Handle on a listening service front end.
pub struct ServeHandle {
    addr: ServiceAddr,
    accept: Option<JoinHandle<()>>,
    svc: JobService,
}

impl ServeHandle {
    /// The actually-bound address (resolves an ephemeral port).
    pub fn addr(&self) -> &ServiceAddr {
        &self.addr
    }

    /// Stop accepting, stop the service, and join the accept loop.
    pub fn stop(mut self) {
        self.svc.stop();
        if let Some(j) = self.accept.take() {
            let _ = j.join();
        }
    }
}

impl JobService {
    /// Serve the submission protocol on `addr`: an accept loop thread
    /// plus one handler thread per connection. A client disconnect
    /// cancels that connection's unfinished jobs (the tenant gave up).
    pub fn serve(&self, addr: ServiceAddr) -> std::io::Result<ServeHandle> {
        let listener = Listener::bind(&addr)?;
        listener.set_nonblocking(true)?;
        let actual = listener.addr().clone();
        let svc = self.clone();
        let accept = std::thread::Builder::new()
            .name("svc-accept".into())
            .spawn(move || loop {
                if svc.inner.stopping.load(Ordering::Acquire) {
                    return;
                }
                match listener.accept() {
                    Ok(conn) => {
                        let svc = svc.clone();
                        let _ = std::thread::Builder::new()
                            .name("svc-conn".into())
                            .spawn(move || handle_conn(&svc, conn));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    Err(_) => return,
                }
            })?;
        Ok(ServeHandle {
            addr: actual,
            accept: Some(accept),
            svc: self.clone(),
        })
    }
}

fn handle_conn(svc: &JobService, mut conn: Box<dyn Conn>) {
    // Jobs this connection submitted and has not yet seen settle: a
    // disconnect cancels them (client-gone tenant abort).
    let mut open_jobs: Vec<JobId> = Vec::new();
    // Until EOF or a protocol violation (either means disconnect):
    while let Ok((msg, _)) = read_frame(&mut conn, wire::decode) {
        let reply = match msg {
            SvcMsg::Submit { tenant, frame } => {
                // A frame that does not open is a submission too: it
                // is refused, logged and counted where every other is.
                let body = Payload::from_frame(frame).and_then(|p| p.open());
                match svc.admit_body(tenant, body) {
                    Ok(job) => {
                        open_jobs.push(job);
                        SvcMsg::SubmitOk { job }
                    }
                    Err(r) => wire::submit_err(&r),
                }
            }
            SvcMsg::Poll { job } => match svc.poll(job) {
                Some(view) => wire::status_msg(&view),
                None => wire::unknown_job_status(job),
            },
            SvcMsg::Wait { job } => match svc.wait(job) {
                Some(view) => {
                    open_jobs.retain(|&j| j != job);
                    wire::status_msg(&view)
                }
                None => wire::unknown_job_status(job),
            },
            SvcMsg::Cancel { job } => {
                svc.cancel(job);
                SvcMsg::CancelOk
            }
            SvcMsg::Stats => {
                let s = svc.stats();
                SvcMsg::StatsOk {
                    submitted: s.submitted,
                    admitted: s.admitted,
                    rejected: s.rejected,
                    completed: s.completed,
                    cache_hits: s.cache_hits,
                    cancelled: s.cancelled,
                }
            }
            SvcMsg::Shutdown => {
                let _ = write_frame(&mut conn, &wire::encode(&SvcMsg::ShutdownAck));
                // Full stop, same as ServeHandle::stop's service half:
                // fence submissions, cancel queued jobs (releasing
                // their admission budget), let running jobs finish,
                // and join the workers. Only the accept loop is left
                // for ServeHandle::stop to reap.
                svc.stop();
                break;
            }
            // Server-to-client messages arriving here are protocol
            // violations; drop the connection.
            _ => break,
        };
        if write_frame(&mut conn, &wire::encode(&reply)).is_err() {
            break;
        }
    }
    for job in open_jobs {
        if let Some(view) = svc.poll(job) {
            if matches!(view.state, JobState::Queued | JobState::Running) {
                svc.cancel(job);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Blocking client for the submission protocol.
pub struct ServiceClient {
    conn: Box<dyn Conn>,
}

impl ServiceClient {
    /// Connect to a serving [`JobService`].
    pub fn connect(addr: &ServiceAddr) -> std::io::Result<Self> {
        Ok(ServiceClient { conn: dial(addr)? })
    }

    fn rpc(&mut self, msg: &SvcMsg) -> std::io::Result<SvcMsg> {
        write_frame(&mut self.conn, &wire::encode(msg))?;
        Ok(read_frame(&mut self.conn, wire::decode)?.0)
    }

    /// Submit a job body for `tenant`. `Err((code, message))` carries
    /// the typed rejection (the [`SvcMsg::SubmitErr`] classes).
    pub fn submit(
        &mut self,
        tenant: TenantId,
        body: Bytes,
    ) -> std::io::Result<Result<JobId, (u8, String)>> {
        let frame = Payload::seal(body, Compression::None).frame();
        match self.rpc(&SvcMsg::Submit { tenant, frame })? {
            SvcMsg::SubmitOk { job } => Ok(Ok(job)),
            SvcMsg::SubmitErr { code, message } => Ok(Err((code, message))),
            other => Err(wire::protocol_err(&other)),
        }
    }

    /// Non-blocking status probe ([`JobService::poll`]). A job the
    /// service does not know is an error of kind `NotFound`.
    pub fn poll(&mut self, job: JobId) -> std::io::Result<JobStatusView> {
        let msg = self.rpc(&SvcMsg::Poll { job })?;
        wire::view_from_status(msg)
    }

    /// Block until the job settles; returns the final status, and
    /// collects a `Done` result as [`JobService::wait`] does. A job
    /// the service does not know is an error of kind `NotFound`.
    pub fn wait(&mut self, job: JobId) -> std::io::Result<JobStatusView> {
        let msg = self.rpc(&SvcMsg::Wait { job })?;
        wire::view_from_status(msg)
    }

    /// Abort a job.
    pub fn cancel(&mut self, job: JobId) -> std::io::Result<()> {
        match self.rpc(&SvcMsg::Cancel { job })? {
            SvcMsg::CancelOk => Ok(()),
            other => Err(wire::protocol_err(&other)),
        }
    }

    /// Service counters: (submitted, admitted, rejected, completed,
    /// cache_hits, cancelled).
    pub fn stats(&mut self) -> std::io::Result<(u64, u64, u64, u64, u64, u64)> {
        match self.rpc(&SvcMsg::Stats)? {
            SvcMsg::StatsOk {
                submitted,
                admitted,
                rejected,
                completed,
                cache_hits,
                cancelled,
            } => Ok((
                submitted, admitted, rejected, completed, cache_hits, cancelled,
            )),
            other => Err(wire::protocol_err(&other)),
        }
    }

    /// Request service shutdown (acknowledged before the connection
    /// closes).
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        match self.rpc(&SvcMsg::Shutdown)? {
            SvcMsg::ShutdownAck => Ok(()),
            other => Err(wire::protocol_err(&other)),
        }
    }
}
