//! Driver-mediated broadcast through "shared persistent storage" — the
//! transport of the paper's Collect-Broadcast implementation.
//!
//! The driver serializes a value once into the shared store — a single
//! sealed [`Payload`] frame, optionally compressed; each node
//! deserializes it at most once (per-node cache), mirroring how the
//! paper's executors read broadcast blocks from the shared filesystem.
//! Handing the frame to a node is a refcount bump, never a copy.

use std::collections::HashMap;
use std::sync::Arc;

use par_pool::Mutex;

use crate::codec::{decode_one, Storable};
use crate::context::TaskContext;
use crate::error::JobError;
use crate::payload::{Compression, Payload, PayloadBuilder};
use crate::transport::ExecutorManager;
use crate::Data;

/// The shared store the driver writes into (one per context).
#[derive(Debug, Default)]
pub struct BroadcastStore {
    entries: Mutex<HashMap<u64, Payload>>,
}

impl BroadcastStore {
    /// Store a serialized broadcast payload.
    pub fn put(&self, id: u64, data: Payload) {
        self.entries.lock().insert(id, data);
    }

    /// Fetch a broadcast payload by id (refcount bump, no copy).
    pub fn get(&self, id: u64) -> Result<Payload, JobError> {
        self.entries
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| JobError::MissingBlock(format!("broadcast {id}")))
    }

    /// Drop a broadcast payload.
    pub fn remove(&self, id: u64) {
        self.entries.lock().remove(&id);
    }
}

/// Removes the serialized payload when the last broadcast handle is
/// dropped (Spark's ContextCleaner unpersisting a dead broadcast) —
/// without this, iterative CB jobs would retain every iteration's
/// broadcast for the context's lifetime.
struct BroadcastGuard {
    id: u64,
    store: Arc<BroadcastStore>,
    remote: Option<Arc<ExecutorManager>>,
}

impl Drop for BroadcastGuard {
    fn drop(&mut self) {
        self.store.remove(self.id);
        if let Some(manager) = &self.remote {
            manager.broadcast_remove(self.id);
        }
    }
}

/// Handle to a broadcast value; cheap to clone into task closures.
pub struct Broadcast<T> {
    id: u64,
    bytes: u64,
    store: Arc<BroadcastStore>,
    /// Wire transport: each node's executor caches the frame and
    /// serves its own node's first read.
    remote: Option<Arc<ExecutorManager>>,
    /// Per-node deserialized cache.
    per_node: Arc<Mutex<HashMap<usize, Arc<T>>>>,
    /// Cleanup on last drop.
    _guard: Arc<BroadcastGuard>,
}

impl<T> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Broadcast {
            id: self.id,
            bytes: self.bytes,
            store: Arc::clone(&self.store),
            remote: self.remote.clone(),
            per_node: Arc::clone(&self.per_node),
            _guard: Arc::clone(&self._guard),
        }
    }
}

impl<T: Data + Storable> Broadcast<T> {
    pub(crate) fn create(
        id: u64,
        value: &T,
        store: Arc<BroadcastStore>,
        compression: Compression,
        remote: Option<Arc<ExecutorManager>>,
    ) -> Self {
        // Serialize exactly once, straight into the sealed frame.
        let mut builder = PayloadBuilder::with_capacity(value.encoded_len());
        value.encode(builder.buf());
        let encoded = builder.seal(compression);
        // Accounting uses the declared (approx) size so virtual-mode
        // payloads price at full scale.
        let bytes = value.approx_bytes() as u64;
        // With a wire transport the driver pushes the sealed frame
        // exactly once per executor (Spark's one-shipment-per-node
        // broadcast); a push failure is tolerated here — the node's
        // first read falls back to the driver copy and re-pushes.
        if let Some(manager) = &remote {
            for node in 0..manager.executors() {
                let _ = manager.broadcast_put(node, id, encoded.frame());
            }
        }
        store.put(id, encoded);
        Broadcast {
            id,
            bytes,
            store: Arc::clone(&store),
            remote: remote.clone(),
            per_node: Arc::new(Mutex::new(HashMap::new())),
            _guard: Arc::new(BroadcastGuard { id, store, remote }),
        }
    }

    /// Serialized size — this is what the driver shipped.
    pub fn serialized_bytes(&self) -> u64 {
        self.bytes
    }

    /// Read the value from a task. The first read on each node
    /// deserializes from shared storage (and is recorded as local
    /// storage traffic); subsequent reads hit the node cache.
    pub fn value(&self, tc: &TaskContext) -> Result<Arc<T>, JobError> {
        let mut cache = self.per_node.lock();
        if let Some(v) = cache.get(&tc.node()) {
            return Ok(Arc::clone(v));
        }
        let payload = match &self.remote {
            // Wire transport: the node's first read pulls the frame
            // from its own executor — a measured socket transfer. An
            // executor that was respawned since the push no longer
            // holds it; fall back to the driver copy and re-push so
            // the node's cache is warm again.
            Some(manager) => match manager.broadcast_get(tc.node(), self.id)? {
                Some((payload, wire)) => {
                    tc.add_local_read(self.bytes, wire);
                    payload
                }
                None => {
                    let payload = self.store.get(self.id)?;
                    let wire = manager
                        .broadcast_put(tc.node(), self.id, payload.frame())
                        .unwrap_or(0);
                    tc.add_local_read(self.bytes, wire);
                    payload
                }
            },
            None => {
                let payload = self.store.get(self.id)?;
                tc.add_local_read(self.bytes, payload.wire_hint(self.bytes));
                payload
            }
        };
        let value = Arc::new(decode_one::<T>(payload.open()?)?);
        cache.insert(tc.node(), Arc::clone(&value));
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_roundtrips_and_caches_per_node() {
        let store = Arc::new(BroadcastStore::default());
        let bc = Broadcast::create(
            9,
            &vec![1.5f64, 2.5],
            Arc::clone(&store),
            Compression::None,
            None,
        );
        let tc0 = TaskContext::new(0);
        let v1 = bc.value(&tc0).unwrap();
        let v2 = bc.value(&tc0).unwrap();
        assert_eq!(*v1, vec![1.5, 2.5]);
        assert!(Arc::ptr_eq(&v1, &v2), "second read hits node cache");
        // Only the first read on the node touched storage.
        assert_eq!(tc0.snapshot().local_read_bytes, bc.serialized_bytes());
        let tc1 = TaskContext::new(1);
        let v3 = bc.value(&tc1).unwrap();
        assert_eq!(*v3, *v1);
        assert!(!Arc::ptr_eq(&v1, &v3), "different node deserializes anew");
    }

    #[test]
    fn payload_is_reclaimed_when_last_handle_drops() {
        let store = Arc::new(BroadcastStore::default());
        let bc = Broadcast::create(5, &1u64, Arc::clone(&store), Compression::None, None);
        let bc2 = bc.clone();
        drop(bc);
        assert!(store.get(5).is_ok(), "still referenced");
        drop(bc2);
        assert!(store.get(5).is_err(), "reclaimed after last drop");
    }

    #[test]
    fn missing_broadcast_errors() {
        let store = Arc::new(BroadcastStore::default());
        let bc = Broadcast::create(1, &0u64, Arc::clone(&store), Compression::None, None);
        store.remove(1);
        let tc = TaskContext::new(0);
        assert!(bc.value(&tc).is_err());
    }

    #[test]
    fn compressed_broadcast_roundtrips_and_reports_wire_bytes() {
        let store = Arc::new(BroadcastStore::default());
        let value: Vec<u64> = vec![7; 512];
        let bc = Broadcast::create(3, &value, Arc::clone(&store), Compression::Lz4, None);
        // Declared size is unchanged by the codec.
        assert_eq!(bc.serialized_bytes(), value.approx_bytes() as u64);
        let tc = TaskContext::new(0);
        assert_eq!(*bc.value(&tc).unwrap(), value);
        let rec = tc.snapshot();
        assert_eq!(rec.local_read_bytes, bc.serialized_bytes());
        assert!(
            rec.local_read_wire_bytes > 0 && rec.local_read_wire_bytes < rec.local_read_bytes,
            "repetitive payload must report a smaller measured wire size, got {}",
            rec.local_read_wire_bytes
        );
    }
}
