//! D4 — digital-twin preservation round trip: package size and time versus
//! twin complexity; rehydration fidelity must be perfect at every scale.

use archival_core::ingest::Repository;
use digital_twin::archive::{archive_twin, DigitalTwin};
use digital_twin::rehydrate::{rehydrate_twin, verify_fidelity};
use trustdb::store::{MemoryBackend, ObjectStore};

/// Result row for one twin scale.
#[derive(Debug, Clone)]
pub struct TwinRow {
    /// Buildings in the twin.
    pub buildings: usize,
    /// Sensors per element.
    pub sensors_per_element: usize,
    /// BIM elements.
    pub elements: usize,
    /// Telemetry readings preserved.
    pub readings: usize,
    /// AIP payload bytes.
    pub aip_bytes: u64,
    /// Archive (package + ingest) seconds.
    pub archive_s: f64,
    /// Rehydrate + verify seconds.
    pub rehydrate_s: f64,
    /// Perfect fidelity?
    pub perfect: bool,
}

/// Sweep twin complexity: buildings × sensor density.
pub fn run(obs: &itrust_obs::ObsCtx) -> (Vec<TwinRow>, String) {
    let mut rows = Vec::new();
    for &(buildings, sensors) in &[(1usize, 1usize), (7, 1), (7, 2), (20, 2)] {
        let twin = DigitalTwin::synthetic("Campus", buildings, sensors, 3_600_000, 11, obs);
        let repo =
            Repository::new(ObjectStore::new(MemoryBackend::new()).with_obs(obs.clone()));
        let (receipt, archive_s) =
            super::timed(|| archive_twin(&repo, &twin, 1_000, "archivist").expect("ready twin"));
        let ((rehydrated, fidelity), rehydrate_s) = super::timed(|| {
            let back = rehydrate_twin(&repo, &receipt.aip_id).expect("rehydrate");
            let fidelity = verify_fidelity(&twin, &back);
            (back, fidelity)
        });
        assert_eq!(rehydrated.bim.element_count(), twin.bim.element_count());
        rows.push(TwinRow {
            buildings,
            sensors_per_element: sensors,
            elements: twin.bim.element_count(),
            readings: twin.sensors.history.len(),
            aip_bytes: receipt.payload_bytes,
            archive_s,
            rehydrate_s,
            perfect: fidelity.is_perfect(),
        });
    }
    let mut out = String::from(
        "D4 — digital-twin preservation round trip (1 h telemetry)\n\
         buildings   sens/elem   elements   readings   AIP MiB   perfect\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:>9} {:>11} {:>10} {:>10} {:>9.1} {:>9}\n",
            r.buildings,
            r.sensors_per_element,
            r.elements,
            r.readings,
            r.aip_bytes as f64 / (1024.0 * 1024.0),
            r.perfect
        ));
    }
    (rows, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fidelity_is_perfect_and_size_scales() {
        let (rows, _) = super::run(&itrust_obs::ObsCtx::null());
        assert!(rows.iter().all(|r| r.perfect));
        assert!(rows.last().unwrap().aip_bytes > rows.first().unwrap().aip_bytes);
    }
}
