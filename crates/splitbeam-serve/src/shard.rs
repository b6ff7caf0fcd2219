//! Former names kept for the `benchmark/` package, which builds against them:
//! [`ShardedApServer`] is an [`ApServer`] from [`ApServer::with_shards`]. No
//! serving logic lives here.

use crate::server::{ApServer, RoundSummary, ServeMode};
use crate::timing::DeadlinePolicy;
use crate::ServeError;
use std::ops::{Deref, DerefMut};

/// An [`ApServer`] with `N` shards under its former name.
#[derive(Debug, Clone)]
pub struct ShardedApServer(ApServer);

/// What [`ShardedApServer::finalize_stream_round`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedRoundSummary(RoundSummary);

impl ShardedRoundSummary {
    pub fn as_round_summary(&self) -> RoundSummary {
        self.0
    }
}

impl ShardedApServer {
    pub fn new(num_shards: usize) -> Self {
        Self(ApServer::with_shards(num_shards))
    }

    /// `close(ServeMode::Streaming, policy)`.
    pub fn finalize_stream_round(
        &mut self,
        policy: Option<DeadlinePolicy>,
    ) -> Result<ShardedRoundSummary, ServeError> {
        let summary = self.0.close(ServeMode::Streaming, policy)?;
        Ok(ShardedRoundSummary(summary))
    }
}

impl Deref for ShardedApServer {
    type Target = ApServer;
    fn deref(&self) -> &ApServer {
        &self.0
    }
}

impl DerefMut for ShardedApServer {
    fn deref_mut(&mut self) -> &mut ApServer {
        &mut self.0
    }
}
