//! Adapter recording [`graft_dfs::ClusterFs`] activity into an [`Obs`].
//!
//! Block-level reads and writes update only metrics — counter and
//! histogram accumulation commutes, so replica traffic from any thread
//! cannot perturb the exported bytes. Rarer namenode-level transitions
//! (healing, datanode kills and revives) additionally emit point events;
//! in the Graft stack those always happen on the coordinator thread
//! (trace flushes, checkpoints, and chaos observers all run there), so
//! the event log stays deterministic.

use std::sync::Arc;

use graft_dfs::DfsObserver;

use crate::registry::Scope;
use crate::Obs;

/// A [`DfsObserver`] feeding a shared [`Obs`]. Register it with
/// [`graft_dfs::ClusterFs::add_observer`].
pub struct DfsMetrics {
    obs: Arc<Obs>,
}

impl DfsMetrics {
    /// An adapter recording into `obs`.
    pub fn new(obs: Arc<Obs>) -> Self {
        Self { obs }
    }
}

impl DfsObserver for DfsMetrics {
    fn block_written(&self, bytes: u64, _replicas: usize, degraded: bool) {
        let reg = self.obs.registry();
        reg.inc("dfs_blocks_written_total", Scope::GLOBAL, 1);
        reg.inc("dfs_bytes_written_total", Scope::GLOBAL, bytes);
        reg.observe_bytes("dfs_block_write_bytes", Scope::GLOBAL, bytes);
        if degraded {
            reg.inc("dfs_degraded_writes_total", Scope::GLOBAL, 1);
        }
    }

    fn block_read(&self, bytes: u64, failovers: u64) {
        let reg = self.obs.registry();
        reg.inc("dfs_blocks_read_total", Scope::GLOBAL, 1);
        reg.inc("dfs_bytes_read_total", Scope::GLOBAL, bytes);
        reg.observe_bytes("dfs_block_read_bytes", Scope::GLOBAL, bytes);
        if failovers > 0 {
            reg.inc("dfs_read_failovers_total", Scope::GLOBAL, failovers);
        }
    }

    fn heal_completed(&self, replicas_created: u64, queue_depth: u64) {
        let reg = self.obs.registry();
        reg.inc("dfs_heals_total", Scope::GLOBAL, 1);
        reg.inc("dfs_replicas_healed_total", Scope::GLOBAL, replicas_created);
        reg.set_gauge("dfs_heal_queue_depth", Scope::GLOBAL, queue_depth as i64);
        self.obs.point("dfs.heal", None, None, || {
            vec![
                ("replicas_created", replicas_created.to_string()),
                ("queue_depth", queue_depth.to_string()),
            ]
        });
    }

    fn datanode_killed(&self, node: usize, live: usize) {
        let reg = self.obs.registry();
        reg.inc("dfs_datanode_kills_total", Scope::GLOBAL, 1);
        reg.set_gauge("dfs_live_datanodes", Scope::GLOBAL, live as i64);
        self.obs.point("dfs.datanode_kill", None, None, || {
            vec![("node", node.to_string()), ("live", live.to_string())]
        });
    }

    fn datanode_revived(&self, node: usize, live: usize) {
        let reg = self.obs.registry();
        reg.inc("dfs_datanode_revives_total", Scope::GLOBAL, 1);
        reg.set_gauge("dfs_live_datanodes", Scope::GLOBAL, live as i64);
        self.obs.point("dfs.datanode_revive", None, None, || {
            vec![("node", node.to_string()), ("live", live.to_string())]
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_dfs::{ClusterFs, ClusterFsConfig, FileSystem};

    #[test]
    fn cluster_activity_lands_in_the_registry() {
        let obs = Obs::deterministic(10);
        let fs =
            ClusterFs::new(ClusterFsConfig { num_datanodes: 3, replication: 2, block_size: 32 });
        fs.add_observer(Arc::new(DfsMetrics::new(obs.clone())));

        fs.write_all("/f", &[7u8; 100]).unwrap();
        fs.read_all("/f").unwrap();
        fs.kill_datanode(0).unwrap();
        fs.re_replicate();

        let reg = obs.registry();
        assert_eq!(reg.counter_value("dfs_blocks_written_total", Scope::GLOBAL), 4);
        assert_eq!(reg.counter_value("dfs_bytes_written_total", Scope::GLOBAL), 100);
        assert_eq!(reg.counter_value("dfs_blocks_read_total", Scope::GLOBAL), 4);
        assert_eq!(reg.counter_value("dfs_datanode_kills_total", Scope::GLOBAL), 1);
        assert!(reg.counter_value("dfs_replicas_healed_total", Scope::GLOBAL) > 0);
        assert_eq!(reg.gauge_value("dfs_heal_queue_depth", Scope::GLOBAL), Some(0));
        let events = obs.events();
        assert!(events.iter().any(|e| e.is_point("dfs.datanode_kill")));
        assert!(events.iter().any(|e| e.is_point("dfs.heal")));
    }
}
