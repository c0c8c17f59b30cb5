//! Crash-safe checkpointing of MSA campaigns (format v2).
//!
//! A checkpoint file is one line of JSON:
//!
//! ```text
//! {"magic":"tesa-msa-checkpoint","version":2,"checksum":"<16 hex>","payload":{...}}
//! ```
//!
//! The payload holds a [`CampaignState`]: the campaign *fingerprint* (a
//! hash of everything that shapes the trajectory — config, space,
//! constraints, objective, evaluator switches) and one [`StartState`] per
//! annealing start, snapshotting the start's RNG stream, temperature
//! schedule position, current/best designs and acceptance stats at a
//! temperature-step boundary. Resuming from a snapshot replays the rest of
//! the run bit-identically, because the annealer is a deterministic
//! function of (state, RNG stream) and evaluations are pure.
//!
//! Two representation decisions keep the format trustworthy:
//!
//! * **Floats are stored as IEEE-754 bit patterns** (`u64`), not decimal.
//!   The in-tree JSON emitter prints `f64` in shortest round-trippable
//!   form, which re-parses integral values like `4.0` into integer
//!   variants — bit-exact for the value but not for the JSON tree, which
//!   would break both resume determinism guarantees and the canonical
//!   re-serialization the checksum depends on.
//! * **The checksum is FNV-1a-64 over the canonically re-serialized
//!   payload**, and [`CampaignState::save`] writes temp file → `fsync` →
//!   atomic rename, so a reader sees either the previous complete
//!   checkpoint or the new one — never a torn file. A torn or tampered
//!   file is rejected with a diagnostic ([`CheckpointError`]), never a
//!   panic.

use crate::design::{ChipletConfig, Integration, McmDesign};
use std::io::Write as _;
use std::path::Path;
use tesa_util::faultpoint;
use tesa_util::hash::fnv1a64;
use tesa_util::Json;

/// Magic string identifying a checkpoint file.
pub const MAGIC: &str = "tesa-msa-checkpoint";

/// Current checkpoint format version. Version 2 added the adaptive
/// screening gate's state to each snapshot; a resume must restore it so
/// the gate disables at the same move whether or not the run was
/// interrupted.
pub const VERSION: u64 = 2;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while writing or reading.
    Io(std::io::Error),
    /// The file is not a well-formed checkpoint (bad JSON, wrong magic,
    /// missing or mistyped fields).
    Malformed(String),
    /// The file declares a format version this build does not read.
    UnsupportedVersion(u64),
    /// The payload does not hash to the declared checksum — the file is
    /// torn or corrupted.
    ChecksumMismatch {
        /// Checksum declared in the header.
        declared: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The checkpoint was written by a campaign with a different
    /// configuration (config/space/constraints/objective/evaluator).
    ConfigMismatch {
        /// Fingerprint of the resuming campaign.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {VERSION})")
            }
            CheckpointError::ChecksumMismatch { declared, computed } => write!(
                f,
                "checkpoint checksum mismatch (declared {declared:016x}, computed \
                 {computed:016x}) — the file is torn or corrupted"
            ),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different campaign (fingerprint {found:016x}, \
                 this campaign is {expected:016x}) — config, space, constraints, \
                 objective and evaluator options must match to resume"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Snapshot of one annealing start at a temperature-step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct StartSnapshot {
    /// The start's RNG stream position ([`tesa_util::Rng::state`]).
    pub rng: [u64; 4],
    /// Current annealing temperature (next loop iteration runs at this
    /// value, or stops if it is at or below the final temperature).
    pub t: f64,
    /// The chain's current design and score; `None` when initialization
    /// found no feasible design (the start is then necessarily done).
    pub current: Option<(McmDesign, f64)>,
    /// Best (score, design) seen so far.
    pub best: Option<(f64, McmDesign)>,
    /// Full evaluations performed so far.
    pub evaluations: u64,
    /// Accepted moves so far.
    pub accepted: u64,
    /// Whether the adaptive screening gate is still enabled at the
    /// snapshot (always `false` for runs configured without screening).
    pub screen_on: bool,
    /// The gate's consecutive-miss count: serial screens since the last
    /// rejecting one. The gate disables itself when this reaches its
    /// limit, so a resume must continue the count, not restart it.
    pub screen_misses: u32,
    /// Every design visited so far, in visit order.
    pub visited: Vec<McmDesign>,
}

/// Progress of one annealing start inside a [`CampaignState`].
#[derive(Debug, Clone, PartialEq)]
pub enum StartState {
    /// Not yet snapshotted: resume re-runs the start from its seed.
    Pending,
    /// Mid-run: resume continues from the snapshot.
    Running(StartSnapshot),
    /// Finished: resume reuses the snapshot's result outright.
    Done(StartSnapshot),
}

/// The full persisted state of a multi-start annealing campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    /// Hash of everything that shapes the trajectory; a resume with a
    /// different fingerprint is rejected.
    pub fingerprint: u64,
    /// One entry per configured start (same order as `MsaConfig::deltas`).
    pub starts: Vec<StartState>,
}

// ---------------------------------------------------------------- codec

/// `f64` → checkpoint representation (IEEE-754 bits as `u64`).
fn bits(x: f64) -> Json {
    Json::U64(x.to_bits())
}

fn from_bits(j: &Json, what: &str) -> Result<f64, CheckpointError> {
    j.as_u64()
        .map(f64::from_bits)
        .ok_or_else(|| CheckpointError::Malformed(format!("{what}: expected f64 bit pattern")))
}

fn need<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, CheckpointError> {
    obj.get(key)
        .ok_or_else(|| CheckpointError::Malformed(format!("missing field {key:?}")))
}

fn need_u64(obj: &Json, key: &str) -> Result<u64, CheckpointError> {
    need(obj, key)?
        .as_u64()
        .ok_or_else(|| CheckpointError::Malformed(format!("field {key:?}: expected u64")))
}

/// A design as the compact array `[array_dim, sram_kib, integration, ics_um,
/// freq_mhz]` — `visited` lists dominate checkpoint size.
fn design_json(d: &McmDesign) -> Json {
    Json::Arr(vec![
        Json::U64(u64::from(d.chiplet.array_dim)),
        Json::U64(d.chiplet.sram_kib_per_bank),
        Json::U64(match d.chiplet.integration {
            Integration::TwoD => 0,
            Integration::ThreeD => 1,
        }),
        Json::U64(u64::from(d.ics_um)),
        Json::U64(u64::from(d.freq_mhz)),
    ])
}

fn design_from_json(j: &Json) -> Result<McmDesign, CheckpointError> {
    let arr = j
        .as_array()
        .filter(|a| a.len() == 5)
        .ok_or_else(|| CheckpointError::Malformed("design: expected a 5-element array".into()))?;
    let mut f = arr.iter().map(Json::as_u64);
    let mut next = |what: &str| {
        f.next()
            .flatten()
            .ok_or_else(|| CheckpointError::Malformed(format!("design {what}: expected u64")))
    };
    let array_dim = u32::try_from(next("array_dim")?)
        .map_err(|_| CheckpointError::Malformed("design array_dim out of range".into()))?;
    let sram = next("sram_kib")?;
    let integration = match next("integration")? {
        0 => Integration::TwoD,
        1 => Integration::ThreeD,
        other => {
            return Err(CheckpointError::Malformed(format!(
                "design integration: expected 0 or 1, got {other}"
            )));
        }
    };
    let ics_um = u32::try_from(next("ics_um")?)
        .map_err(|_| CheckpointError::Malformed("design ics_um out of range".into()))?;
    let freq_mhz = u32::try_from(next("freq_mhz")?)
        .map_err(|_| CheckpointError::Malformed("design freq_mhz out of range".into()))?;
    Ok(McmDesign {
        chiplet: ChipletConfig { array_dim, sram_kib_per_bank: sram, integration },
        ics_um,
        freq_mhz,
    })
}

fn snapshot_json(s: &StartSnapshot) -> Vec<(String, Json)> {
    vec![
        ("rng".into(), Json::Arr(s.rng.iter().map(|&w| Json::U64(w)).collect())),
        ("t_bits".into(), bits(s.t)),
        (
            "current".into(),
            s.current.as_ref().map_or(Json::Null, |(d, score)| {
                Json::Arr(vec![design_json(d), bits(*score)])
            }),
        ),
        (
            "best".into(),
            s.best.as_ref().map_or(Json::Null, |(score, d)| {
                Json::Arr(vec![bits(*score), design_json(d)])
            }),
        ),
        ("evaluations".into(), Json::U64(s.evaluations)),
        ("accepted".into(), Json::U64(s.accepted)),
        (
            "screen".into(),
            Json::Arr(vec![Json::Bool(s.screen_on), Json::U64(u64::from(s.screen_misses))]),
        ),
        ("visited".into(), Json::Arr(s.visited.iter().map(design_json).collect())),
    ]
}

fn snapshot_from_json(obj: &Json) -> Result<StartSnapshot, CheckpointError> {
    let rng_arr = need(obj, "rng")?
        .as_array()
        .filter(|a| a.len() == 4)
        .ok_or_else(|| CheckpointError::Malformed("rng: expected a 4-element array".into()))?;
    let mut rng = [0u64; 4];
    for (slot, j) in rng.iter_mut().zip(rng_arr) {
        *slot = j
            .as_u64()
            .ok_or_else(|| CheckpointError::Malformed("rng word: expected u64".into()))?;
    }
    let t = from_bits(need(obj, "t_bits")?, "t_bits")?;
    let current = match need(obj, "current")? {
        Json::Null => None,
        pair => {
            let a = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                CheckpointError::Malformed("current: expected [design, score]".into())
            })?;
            Some((design_from_json(&a[0])?, from_bits(&a[1], "current score")?))
        }
    };
    let best = match need(obj, "best")? {
        Json::Null => None,
        pair => {
            let a = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                CheckpointError::Malformed("best: expected [score, design]".into())
            })?;
            Some((from_bits(&a[0], "best score")?, design_from_json(&a[1])?))
        }
    };
    let screen = need(obj, "screen")?
        .as_array()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| CheckpointError::Malformed("screen: expected [enabled, misses]".into()))?;
    let screen_on = screen[0]
        .as_bool()
        .ok_or_else(|| CheckpointError::Malformed("screen enabled: expected bool".into()))?;
    let screen_misses = screen[1]
        .as_u64()
        .and_then(|m| u32::try_from(m).ok())
        .ok_or_else(|| CheckpointError::Malformed("screen misses: expected u32".into()))?;
    let visited = need(obj, "visited")?
        .as_array()
        .ok_or_else(|| CheckpointError::Malformed("visited: expected an array".into()))?
        .iter()
        .map(design_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StartSnapshot {
        rng,
        t,
        current,
        best,
        evaluations: need_u64(obj, "evaluations")?,
        accepted: need_u64(obj, "accepted")?,
        screen_on,
        screen_misses,
        visited,
    })
}

impl CampaignState {
    /// The payload subtree (everything under `"payload"`).
    pub fn to_json(&self) -> Json {
        let starts: Vec<Json> = self
            .starts
            .iter()
            .map(|s| {
                let (tag, snap) = match s {
                    StartState::Pending => ("pending", None),
                    StartState::Running(snap) => ("running", Some(snap)),
                    StartState::Done(snap) => ("done", Some(snap)),
                };
                let mut fields = vec![("state".to_owned(), Json::str(tag))];
                if let Some(snap) = snap {
                    fields.extend(snapshot_json(snap));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("fingerprint".into(), Json::U64(self.fingerprint)),
            ("starts".into(), Json::Arr(starts)),
        ])
    }

    /// Parses the payload subtree.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] describing the first offending field.
    pub fn from_json(payload: &Json) -> Result<Self, CheckpointError> {
        let fingerprint = need_u64(payload, "fingerprint")?;
        let starts = need(payload, "starts")?
            .as_array()
            .ok_or_else(|| CheckpointError::Malformed("starts: expected an array".into()))?
            .iter()
            .map(|s| {
                let tag = need(s, "state")?.as_str().ok_or_else(|| {
                    CheckpointError::Malformed("start state: expected a string".into())
                })?;
                match tag {
                    "pending" => Ok(StartState::Pending),
                    "running" => Ok(StartState::Running(snapshot_from_json(s)?)),
                    "done" => Ok(StartState::Done(snapshot_from_json(s)?)),
                    other => Err(CheckpointError::Malformed(format!(
                        "start state: expected pending/running/done, got {other:?}"
                    ))),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { fingerprint, starts })
    }

    /// The complete single-line file content (header + checksum + payload,
    /// trailing newline). Serialization is canonical: equal states produce
    /// identical bytes.
    pub fn to_file_bytes(&self) -> String {
        let payload = self.to_json().to_string();
        let checksum = fnv1a64(payload.as_bytes());
        format!(
            "{{\"magic\":\"{MAGIC}\",\"version\":{VERSION},\"checksum\":\"{checksum:016x}\",\
             \"payload\":{payload}}}\n"
        )
    }

    /// Parses and verifies a complete checkpoint file.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] except `Io`/`ConfigMismatch`; corrupted or
    /// truncated input is always an `Err`, never a panic.
    pub fn from_file_bytes(text: &str) -> Result<Self, CheckpointError> {
        let doc = tesa_util::json::parse(text)
            .map_err(|e| CheckpointError::Malformed(format!("invalid JSON: {e}")))?;
        match need(&doc, "magic")?.as_str() {
            Some(MAGIC) => {}
            Some(other) => {
                return Err(CheckpointError::Malformed(format!(
                    "magic: expected {MAGIC:?}, got {other:?}"
                )));
            }
            None => return Err(CheckpointError::Malformed("magic: expected a string".into())),
        }
        let version = need_u64(&doc, "version")?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let declared = need(&doc, "checksum")?
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| {
                CheckpointError::Malformed("checksum: expected a hex string".into())
            })?;
        let payload = need(&doc, "payload")?;
        // The canonical re-serialization of the parsed payload reproduces
        // the hashed bytes exactly (all scalars are u64/strings, which the
        // emitter round-trips verbatim).
        let computed = fnv1a64(payload.to_string().as_bytes());
        if computed != declared {
            return Err(CheckpointError::ChecksumMismatch { declared, computed });
        }
        Self::from_json(payload)
    }

    /// Writes the checkpoint crash-safely: temp file in the same
    /// directory, `fsync`, atomic rename over `path`, best-effort
    /// directory sync. A crash at any point leaves either the old
    /// checkpoint or the new one.
    ///
    /// Fault-injection sites: `ckpt.write` fails the temp-file write,
    /// `ckpt.rename` fails between write and rename (leaving the temp
    /// file, as a real crash would).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] with the failing operation's error.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let inject = |site: &str| {
            std::io::Error::other(format!("injected fault: {site}"))
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        if faultpoint::fire("ckpt.write") {
            return Err(inject("ckpt.write").into());
        }
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(self.to_file_bytes().as_bytes())?;
        f.sync_all()?;
        drop(f);
        if faultpoint::fire("ckpt.rename") {
            return Err(inject("ckpt.rename").into());
        }
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable where the platform allows it.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads and verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// As [`CampaignState::from_file_bytes`], plus [`CheckpointError::Io`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_file_bytes(&std::fs::read_to_string(path)?)
    }
}

/// Serializes in-crate unit tests that arm the process-global faultpoint
/// registry or reach a `ckpt.*` site (cargo runs test threads in
/// parallel, and a save elsewhere would use up an armed plan's hits).
#[cfg(test)]
pub(crate) static FAULT_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn design(array: u32, sram: u64, ics: u32) -> McmDesign {
        McmDesign {
            chiplet: ChipletConfig {
                array_dim: array,
                sram_kib_per_bank: sram,
                integration: Integration::TwoD,
            },
            ics_um: ics,
            freq_mhz: 400,
        }
    }

    fn sample() -> CampaignState {
        CampaignState {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            starts: vec![
                StartState::Pending,
                StartState::Running(StartSnapshot {
                    rng: [1, 2, 3, u64::MAX],
                    t: 4.0, // integral float: the bits encoding must keep it an f64
                    current: Some((design(128, 512, 500), 1.25)),
                    best: Some((1.25, design(128, 512, 500))),
                    evaluations: 17,
                    accepted: 3,
                    screen_on: true,
                    screen_misses: 5,
                    visited: vec![design(96, 256, 0), design(128, 512, 500)],
                }),
                StartState::Done(StartSnapshot {
                    rng: [9, 8, 7, 6],
                    t: 0.4375,
                    current: None,
                    best: None,
                    evaluations: 40,
                    accepted: 0,
                    screen_on: false,
                    screen_misses: 0,
                    visited: vec![design(160, 1024, 1000)],
                }),
            ],
        }
    }

    #[test]
    fn file_round_trip_is_identity_and_canonical() {
        let state = sample();
        let bytes = state.to_file_bytes();
        let parsed = CampaignState::from_file_bytes(&bytes).expect("round trip");
        assert_eq!(parsed, state);
        assert_eq!(parsed.to_file_bytes(), bytes, "re-serialization is byte-identical");
    }

    #[test]
    fn negative_zero_and_special_floats_survive() {
        let mut state = sample();
        if let StartState::Running(s) = &mut state.starts[1] {
            s.t = -0.0;
            s.current = Some((design(96, 256, 0), f64::INFINITY));
        }
        let parsed = CampaignState::from_file_bytes(&state.to_file_bytes()).expect("parse");
        assert_eq!(parsed, state);
        if let StartState::Running(s) = &parsed.starts[1] {
            assert!(s.t.is_sign_negative(), "-0.0 keeps its sign bit");
        }
    }

    #[test]
    fn save_and_load_through_a_file() {
        let _l = FAULT_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tesa_ckpt_test_{}.json", std::process::id()));
        let state = sample();
        state.save(&path).expect("save");
        assert_eq!(CampaignState::load(&path).expect("load"), state);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_is_rejected_with_a_diagnostic() {
        let bytes = sample().to_file_bytes();
        // Flip one payload byte: checksum mismatch.
        let mut flipped = bytes.clone().into_bytes();
        let pos = bytes.find("\"starts\"").unwrap() + 20;
        flipped[pos] = flipped[pos].wrapping_add(1);
        let text = String::from_utf8_lossy(&flipped).into_owned();
        match CampaignState::from_file_bytes(&text) {
            Err(CheckpointError::ChecksumMismatch { .. }) | Err(CheckpointError::Malformed(_)) => {}
            other => panic!("corrupted file accepted: {other:?}"),
        }
        // Truncations at every length parse to an error, never a panic.
        for cut in 0..bytes.len() - 1 {
            assert!(
                CampaignState::from_file_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Wrong magic and future version are specific errors.
        let wrong_magic = bytes.replace(MAGIC, "tesa-other");
        assert!(matches!(
            CampaignState::from_file_bytes(&wrong_magic),
            Err(CheckpointError::Malformed(_) | CheckpointError::ChecksumMismatch { .. })
        ));
        let future = bytes.replace(&format!("\"version\":{VERSION}"), "\"version\":99");
        assert!(matches!(
            CampaignState::from_file_bytes(&future),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn save_faultpoints_fail_without_touching_the_target() {
        use tesa_util::faultpoint::{self, FaultPlan, Trigger};
        let _l = FAULT_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tesa_ckpt_fault_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let state = sample();
        {
            let _scope = faultpoint::activate(
                &FaultPlan::new().site("ckpt.write", Trigger::Always),
            );
            assert!(matches!(state.save(&path), Err(CheckpointError::Io(_))));
            assert!(!path.exists(), "failed write must not create the target");
        }
        {
            let _scope = faultpoint::activate(
                &FaultPlan::new().site("ckpt.rename", Trigger::Always),
            );
            assert!(matches!(state.save(&path), Err(CheckpointError::Io(_))));
            assert!(!path.exists(), "failed rename must not create the target");
        }
        state.save(&path).expect("clean save succeeds");
        assert_eq!(CampaignState::load(&path).expect("load"), state);
        let _ = std::fs::remove_file(&path);
        let mut tmp = path.into_os_string();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(tmp);
    }
}
