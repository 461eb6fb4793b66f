//! JSON import/export of regions.
//!
//! Operators keep fiber maps in GIS exports; downstream tooling wants a
//! stable interchange format. A [`Region`] serializes to a single JSON
//! document containing sites (kind, position, name), ducts (endpoints,
//! length), the DC list and capacities — everything the planner needs.

use crate::map::Region;

/// Serialize a region to pretty-printed JSON.
///
/// # Errors
///
/// Returns the serializer's error message (should not happen for valid
/// regions).
pub fn region_to_json(region: &Region) -> Result<String, String> {
    serde_json::to_string_pretty(region).map_err(|e| e.to_string())
}

/// Deserialize a region from JSON and validate it.
///
/// # Errors
///
/// Returns a message for malformed JSON or a region failing validation.
pub fn region_from_json(json: &str) -> Result<Region, String> {
    let region: Region = serde_json::from_str(json).map_err(|e| e.to_string())?;
    // Re-run the structural invariants; `validate` panics, so catch it
    // into an error for file-sourced input.
    std::panic::catch_unwind(|| region.validate())
        .map_err(|_| "region failed validation (see panic message)".to_owned())?;
    Ok(region)
}

/// Write a region to a file.
///
/// # Errors
///
/// Propagates serialization and I/O errors as strings.
pub fn save_region(region: &Region, path: &std::path::Path) -> Result<(), String> {
    let json = region_to_json(region)?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Read a region from a file.
///
/// # Errors
///
/// Propagates I/O, parse and validation errors as strings.
pub fn load_region(path: &std::path::Path) -> Result<Region, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    region_from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_metro, place_dcs};
    use crate::{MetroParams, PlacementParams};

    fn region() -> Region {
        place_dcs(
            generate_metro(&MetroParams::default()),
            &PlacementParams {
                n_dcs: 4,
                ..PlacementParams::default()
            },
        )
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let r = region();
        let json = region_to_json(&r).unwrap();
        let back = region_from_json(&json).unwrap();
        assert_eq!(back.dcs, r.dcs);
        assert_eq!(back.capacity_fibers, r.capacity_fibers);
        assert_eq!(back.wavelengths_per_fiber, r.wavelengths_per_fiber);
        assert_eq!(back.map.site_count(), r.map.site_count());
        assert_eq!(back.map.duct_count(), r.map.duct_count());
        for i in 0..r.map.site_count() {
            // JSON float formatting may drop the last ULP.
            let d = back.map.site(i).position.distance(&r.map.site(i).position);
            assert!(d < 1e-9, "site {i} moved by {d} km");
            assert_eq!(back.map.site(i).kind, r.map.site(i).kind);
        }
        // Planner-visible behaviour identical (within float formatting).
        let da = back.map.fiber_distance(r.dcs[0], r.dcs[1]).unwrap();
        let db = r.map.fiber_distance(r.dcs[0], r.dcs[1]).unwrap();
        assert!((da - db).abs() < 1e-9);
    }

    #[test]
    fn file_round_trip() {
        let r = region();
        let dir = std::env::temp_dir().join("iris-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.json");
        save_region(&r, &path).unwrap();
        let back = load_region(&path).unwrap();
        assert_eq!(back.dcs, r.dcs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(region_from_json("{not json").is_err());
        assert!(region_from_json("{}").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = region_from_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn site_names_round_trip_byte_for_byte() {
        let r = region();
        let json = region_to_json(&r).unwrap();
        // Multibyte UTF-8, every escape, and runs mixing both.
        let name = "Zürich € 𝄞 \"q\" \\ / \u{8}\u{c}\n\r\t \u{1f} end";
        let renamed = json.replacen("\"HUT0\"", &serde_json::to_string(name).unwrap(), 1);
        assert_ne!(renamed, json, "the region has a HUT0");
        let back = region_from_json(&renamed).unwrap();
        let site = (0..back.map.site_count())
            .find(|&i| back.map.site(i).name != r.map.site(i).name)
            .expect("one site renamed");
        assert_eq!(back.map.site(site).name, name);
        assert_eq!(region_to_json(&back).unwrap(), renamed);
    }

    #[test]
    fn invalid_region_is_rejected() {
        let r = region();
        let mut json: serde_json::Value =
            serde_json::from_str(&region_to_json(&r).unwrap()).unwrap();
        // Break the invariant: drop one capacity entry.
        json["capacity_fibers"] = serde_json::json!([16]);
        let err = region_from_json(&json.to_string());
        assert!(err.is_err());
    }

    #[test]
    fn missing_file_is_an_error() {
        let err = load_region(std::path::Path::new("/nonexistent/region.json"));
        assert!(err.is_err());
    }
}
