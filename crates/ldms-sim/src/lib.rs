//! LDMS-like monitoring substrate.
//!
//! The paper's prototype uses LDMS (Lightweight Distributed Metric
//! Service) to sample Lustre-client counters on every compute node at a
//! fixed cadence and lands the samples in SOS, the Scalable Object Store,
//! where the analytical services query them. This crate reproduces that
//! data path in simulation:
//!
//! * [`store`] — an SOS-like append-only store: named containers of
//!   time-indexed records with range and windowed-aggregate queries;
//! * [`daemon`] — the sampling daemon: the experiment driver feeds it the
//!   file-system load at each sampling tick; it appends records for the
//!   aggregate throughput and folds every running job's throughput into
//!   that job's running volume.
//!
//! Keeping monitoring separate matters for fidelity: the analytics crate
//! estimates job requirements from these *sampled* rates (with the
//! sampling-resolution error a real deployment would have), never from
//! simulator ground truth.

pub mod daemon;
pub mod store;

pub use daemon::LdmsDaemon;
pub use store::{Container, MetricStore, Record};
