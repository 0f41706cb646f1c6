//! Seeded request sequences: every run of a workload with one seed sends
//! the same requests in the same order, so runs do the same work.

use std::path::Path;

/// SplitMix64: a small deterministic stream, independent of the tensor
/// crate's RNG so traffic stays fixed when model code changes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_E2E0_BE4C_0001)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What one request asks the server to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `/v1/recommend` for a known `user_id`.
    Warm,
    /// `/v1/recommend` for a raw content vector (a cold user).
    Cold,
    /// `/v1/adapt` for a known user with an 8-pair support set.
    Adapt,
    /// `/v1/feedback` for one (user, item, label) event.
    Feedback,
}

impl Kind {
    pub fn is_recommend(self) -> bool {
        matches!(self, Kind::Warm | Kind::Cold)
    }
}

/// One request: its parameters (for the in-process replay and the output
/// checks) and its exact bytes on the wire.
pub struct Req {
    pub kind: Kind,
    pub user: usize,
    pub content: Vec<f32>,
    /// Support pairs (`Adapt`) or the single event (`Feedback`).
    pub pairs: Vec<(usize, f32)>,
    pub raw: Vec<u8>,
}

/// A traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 80 % warm `user_id`, 20 % cold `content` recommends; no writes.
    Read,
    /// 60 % recommend, 25 % adapt, 15 % feedback, users from a hot set.
    AdaptMix,
}

/// Catalogue shape the generator draws ids and vectors from.
pub struct Shape {
    pub n_users: usize,
    pub n_items: usize,
    /// Users that draw most of the `AdaptMix` traffic.
    pub hot: Vec<usize>,
    /// Content rows of the world's held-out cold users, as written by the
    /// model path: the `content` of every cold request is one of them.
    pub cold: Vec<String>,
}

/// Share of `AdaptMix` user draws that land on the hot set.
const HOT_SHARE: f64 = 0.8;
/// Support-set size of every `/v1/adapt` request.
const SUPPORT_PAIRS: usize = 8;
/// List length every recommend asks for.
pub const K: usize = 10;

/// `n` distinct users drawn from `0..n_users`.
pub fn hot_set(rng: &mut Rng, n_users: usize, n: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n_users).collect();
    for i in 0..n.min(n_users) {
        let j = i + rng.below(n_users - i);
        all.swap(i, j);
    }
    all.truncate(n.min(n_users));
    all
}

/// `count` requests of `mix`, drawn from `rng`.
pub fn generate(mix: Mix, count: usize, rng: &mut Rng, shape: &Shape) -> Vec<Req> {
    (0..count).map(|_| one(mix, rng, shape)).collect()
}

fn one(mix: Mix, rng: &mut Rng, shape: &Shape) -> Req {
    let r = rng.unit();
    match mix {
        Mix::Read if r < 0.8 => warm_request(rng.below(shape.n_users)),
        Mix::Read => cold(&shape.cold[rng.below(shape.cold.len())]),
        Mix::AdaptMix => {
            let user = if rng.unit() < HOT_SHARE {
                shape.hot[rng.below(shape.hot.len())]
            } else {
                rng.below(shape.n_users)
            };
            if r < 0.60 {
                warm_request(user)
            } else if r < 0.85 {
                let pairs = (0..SUPPORT_PAIRS)
                    .map(|p| (rng.below(shape.n_items), if p % 2 == 0 { 1.0 } else { 0.0 }))
                    .collect();
                adapt(user, pairs)
            } else {
                let label = if rng.unit() < 0.75 { 1.0 } else { 0.0 };
                feedback(user, rng.below(shape.n_items), label)
            }
        }
    }
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: e2ebench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `/v1/recommend` request for a known user.
pub fn warm_request(user: usize) -> Req {
    let raw = post("/v1/recommend", &format!(r#"{{"user_id":{user},"k":{K}}}"#));
    Req { kind: Kind::Warm, user, content: Vec::new(), pairs: Vec::new(), raw }
}

/// Reads the cold users' content rows written beside the checkpoint and
/// checks that each has `dim` finite values.
pub fn read_cold_users(path: &Path, dim: usize) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let rows: Vec<String> = text.lines().map(str::to_string).collect();
    for row in &rows {
        if parse_content(row).filter(|c| c.len() == dim).is_none() {
            return Err(format!("{}: bad content row {row:?}", path.display()));
        }
    }
    if rows.is_empty() {
        return Err(format!("{}: no cold users", path.display()));
    }
    Ok(rows)
}

/// A content row as the server reads it: each value parsed as f64 and
/// narrowed to f32.
fn parse_content(row: &str) -> Option<Vec<f32>> {
    row.split(',')
        .map(|v| v.parse::<f64>().ok().filter(|x| x.is_finite()).map(|x| x as f32))
        .collect()
}

fn cold(row: &str) -> Req {
    let content = parse_content(row).expect("rows are checked when read");
    let raw = post("/v1/recommend", &format!(r#"{{"content":[{row}],"k":{K}}}"#));
    Req { kind: Kind::Cold, user: 0, content, pairs: Vec::new(), raw }
}

fn adapt(user: usize, pairs: Vec<(usize, f32)>) -> Req {
    let support: Vec<String> = pairs.iter().map(|(i, l)| format!("[{i},{l:.1}]")).collect();
    let raw =
        post("/v1/adapt", &format!(r#"{{"user_id":{user},"support":[{}]}}"#, support.join(",")));
    Req { kind: Kind::Adapt, user, content: Vec::new(), pairs, raw }
}

fn feedback(user: usize, item: usize, label: f32) -> Req {
    let raw = post(
        "/v1/feedback",
        &format!(r#"{{"user_id":{user},"item_id":{item},"label":{label:.1}}}"#),
    );
    Req { kind: Kind::Feedback, user, content: Vec::new(), pairs: vec![(item, label)], raw }
}
