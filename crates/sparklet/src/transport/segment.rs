//! Segment files: how a sealed frame crosses between the driver and an
//! executor that share a host.
//!
//! Under a Unix-socket transport every node owns a directory next to
//! the socket, `<socket path>.seg/<node>/`. A frame is written once, to
//! the file `<seq>` in the owning node's directory, where `seq` is
//! unique over the manager's lifetime; the socket carries only
//! `(seq, len)`. The executor vets the file at the door (its length and
//! its payload header) and keeps `seq` in its index instead of the
//! bytes; it unlinks every file it drops from that index. A fetch reads
//! the file back. The driver reclaims a killed executor's directory
//! before the replacement starts, and the whole tree when the manager
//! goes away.
//!
//! A segment is hostile input like any socket body: a length over
//! [`MAX_FRAME`] or one that differs from the recorded length is
//! refused before anything is allocated for it, and every failure is a
//! typed [`JobError`], never a panic.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::error::JobError;
use crate::payload::{Payload, FRAME_HEADER};
use crate::wire::MAX_FRAME;

/// The segment tree of the Unix socket at `socket`: `<socket>.seg`.
pub fn root(socket: &Path) -> PathBuf {
    let mut dir = socket.as_os_str().to_owned();
    dir.push(".seg");
    PathBuf::from(dir)
}

/// `node`'s directory in the segment tree rooted at `root`.
pub fn node_dir(root: &Path, node: u64) -> PathBuf {
    root.join(node.to_string())
}

fn path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(seq.to_string())
}

fn io_err(what: &str, dir: &Path, seq: u64, e: std::io::Error) -> JobError {
    JobError::Transport(format!("{what} segment {}: {e}", path(dir, seq).display()))
}

/// Write `frame` as the new segment `seq` of `dir`. An existing file of
/// that name is an error, never overwritten; a write that fails midway
/// leaves no file behind.
pub(crate) fn write(dir: &Path, seq: u64, frame: &[u8]) -> Result<(), JobError> {
    let mut file = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path(dir, seq))
        .map_err(|e| io_err("create", dir, seq, e))?;
    file.write_all(frame).map_err(|e| {
        remove(dir, seq);
        io_err("write", dir, seq, e)
    })
}

/// Unlink segment `seq` of `dir`; one that is already gone is fine.
pub(crate) fn remove(dir: &Path, seq: u64) {
    let _ = std::fs::remove_file(path(dir, seq));
}

/// Open segment `seq` of `dir`, refusing it unless it is `len` bytes
/// long and `len` is within [`MAX_FRAME`]. An open file stays readable
/// after its name is unlinked, so a reader that opens while the holder
/// cannot drop the segment reads it whole afterwards.
pub(crate) fn open(dir: &Path, seq: u64, len: u64) -> Result<File, JobError> {
    if len > u64::from(MAX_FRAME) {
        return Err(JobError::Codec(format!(
            "segment {seq} of {len} bytes exceeds MAX_FRAME {MAX_FRAME}"
        )));
    }
    let file = File::open(path(dir, seq)).map_err(|e| io_err("open", dir, seq, e))?;
    let on_disk = file
        .metadata()
        .map_err(|e| io_err("stat", dir, seq, e))?
        .len();
    if on_disk != len {
        return Err(JobError::Codec(format!(
            "segment {seq} is {on_disk} bytes, recorded as {len}"
        )));
    }
    Ok(file)
}

/// The door check for a segment just put: [`open`], then the payload
/// header [`Payload::from_frame`] would check, read from the file's
/// first bytes.
pub(crate) fn check(dir: &Path, seq: u64, len: u64) -> Result<(), JobError> {
    let mut head = Vec::with_capacity(FRAME_HEADER);
    open(dir, seq, len)?
        .take(FRAME_HEADER as u64)
        .read_to_end(&mut head)
        .map_err(|e| io_err("read", dir, seq, e))?;
    Payload::check_header(&head, len)
}

/// Read an opened segment of `len` bytes (see [`open`]) into one
/// buffer. A file that shrank after it was opened is an error.
pub(crate) fn read(file: File, len: u64) -> Result<Bytes, JobError> {
    // `open` bounded `len` by MAX_FRAME, which fits every usize.
    let mut frame = Vec::with_capacity(len as usize);
    file.take(len)
        .read_to_end(&mut frame)
        .map_err(|e| JobError::Transport(format!("read segment: {e}")))?;
    if frame.len() as u64 != len {
        return Err(JobError::Codec(format!(
            "segment ended after {} of {len} bytes",
            frame.len()
        )));
    }
    Ok(Bytes::from(frame))
}
