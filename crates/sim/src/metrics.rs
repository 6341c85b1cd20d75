//! Detection-time, detection-distance and stabilization statistics.
//!
//! These are the paper's evaluation quantities (§2.4–§2.5):
//!
//! * **detection time** — rounds (or asynchronous time units) from the moment
//!   the faults cease until some node raises an alarm;
//! * **detection distance** — for each faulty node, the hop distance to the
//!   closest node that raises an alarm within the detection time; the scheme's
//!   detection distance is the maximum over faulty nodes;
//! * **stabilization time** — for detection-based self-stabilizing
//!   construction algorithms, the time from an arbitrary configuration until
//!   the output is correct and stays correct.

use smst_graph::{NodeId, WeightedGraph};

/// The outcome of a fault-detection experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionReport {
    /// Whether any node raised an alarm within the allotted time.
    pub detected: bool,
    /// Rounds / time units from fault injection to the first alarm.
    pub detection_time: Option<usize>,
    /// The nodes raising an alarm at detection time.
    pub alarm_nodes: Vec<NodeId>,
    /// For each faulty node, the hop distance to the closest alarming node
    /// (aligned with the fault plan's node order).
    pub per_fault_distance: Vec<usize>,
    /// The scheme's detection distance: the maximum of
    /// [`Self::per_fault_distance`].
    pub max_detection_distance: usize,
}

impl DetectionReport {
    /// A report for an execution in which no alarm was raised in time.
    pub fn not_detected() -> Self {
        DetectionReport {
            detected: false,
            detection_time: None,
            alarm_nodes: Vec::new(),
            per_fault_distance: Vec::new(),
            max_detection_distance: usize::MAX,
        }
    }

    /// Builds a report from the detection time, the alarming nodes and the
    /// faulty nodes, computing hop distances in `g`.
    pub fn from_alarms(
        g: &WeightedGraph,
        detection_time: usize,
        alarm_nodes: Vec<NodeId>,
        fault_nodes: &[NodeId],
    ) -> Self {
        let per_fault_distance = detection_distances(g, fault_nodes, &alarm_nodes);
        let max_detection_distance = per_fault_distance.iter().copied().max().unwrap_or(0);
        DetectionReport {
            detected: true,
            detection_time: Some(detection_time),
            alarm_nodes,
            per_fault_distance,
            max_detection_distance,
        }
    }
}

/// For each fault node, the hop distance (in `g`) to the closest alarming
/// node; `usize::MAX` if there are no alarming nodes.
fn detection_distances(
    g: &WeightedGraph,
    fault_nodes: &[NodeId],
    alarm_nodes: &[NodeId],
) -> Vec<usize> {
    fault_nodes
        .iter()
        .map(|&f| {
            let dist = g.bfs_distances(f);
            alarm_nodes
                .iter()
                .map(|&a| dist[a.index()])
                .min()
                .unwrap_or(usize::MAX)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_graph::generators::path_graph;

    #[test]
    fn distances_to_closest_alarm() {
        let g = path_graph(6, 0);
        let d = detection_distances(&g, &[NodeId(0), NodeId(5)], &[NodeId(2), NodeId(4)]);
        assert_eq!(d, vec![2, 1]);
    }

    #[test]
    fn no_alarms_gives_max() {
        let g = path_graph(3, 0);
        let d = detection_distances(&g, &[NodeId(1)], &[]);
        assert_eq!(d, vec![usize::MAX]);
    }

    #[test]
    fn report_from_alarms() {
        let g = path_graph(5, 0);
        let r = DetectionReport::from_alarms(&g, 7, vec![NodeId(3)], &[NodeId(0), NodeId(4)]);
        assert!(r.detected);
        assert_eq!(r.detection_time, Some(7));
        assert_eq!(r.per_fault_distance, vec![3, 1]);
        assert_eq!(r.max_detection_distance, 3);
    }

    #[test]
    fn not_detected_report() {
        let r = DetectionReport::not_detected();
        assert!(!r.detected);
        assert_eq!(r.detection_time, None);
        assert_eq!(r.max_detection_distance, usize::MAX);
    }
}
