//! # itrust-service — multi-tenant archival service layer
//!
//! A concurrent front end over the `trustdb` preservation substrate,
//! modelling the service tier an ARCHANGEL-style public archive runs for
//! its depositing institutions. Three layers compose:
//!
//! * [`shard`] — a hash-partitioned [`shard::ShardedStore`]: N independent
//!   shards, each with its own content-addressed object store, write-ahead
//!   log, audit chain, and fixity root. [`shard::shard_of`] routing is a
//!   pure hash, so placement is deterministic everywhere.
//! * [`tenant`] — per-tenant namespaces with object-count and byte quotas
//!   enforced by reservation *before* any byte is written
//!   ([`trustdb::Error::QuotaExceeded`], never transient), plus an isolated
//!   [`itrust_obs::ObsCtx`] per tenant.
//! * [`executor`] — an admission-controlled request executor on
//!   `itrust-par`: bounded queue (shed with the transient
//!   [`trustdb::Error::Overloaded`]), token-bucket rate limiting on the
//!   injected [`trustdb::replica::Clock`], and per-tick parallel execution
//!   that serializes each shard's operations so the whole service is
//!   deterministic at any `ITRUST_THREADS`.
//!
//! The D10 experiment (`itrust-bench`) drives this layer with a
//! closed-loop load generator replaying the paper's Table 1 fond mix from
//! thousands of simulated clients, reporting per-tenant p50/p99/p999 —
//! byte-identical across thread counts.

#![deny(unsafe_code)]

pub mod admission;
pub mod executor;
pub mod shard;
pub mod tenant;

pub use admission::{BucketConfig, TokenBucket};
pub use executor::{Completion, ExecutorConfig, OpOutput, Request, ServiceExecutor};
pub use shard::{shard_of, PutOutcome, Shard, ShardedConfig, ShardedStore, WalConfig};
pub use tenant::{Quota, Tenant, Usage};
