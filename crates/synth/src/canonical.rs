//! Canonicalization of routing jobs under translation and the D4
//! symmetries — the key-normalization layer of the content-addressed
//! strategy cache (DESIGN.md §16).
//!
//! A routing-job MDP is fully determined by (bounds geometry, start, goal,
//! the effective force over the bounds, the hazard boxes, the action
//! configuration, and the query) — *up to where the bounds sit on the chip
//! and how they are oriented*. Translating the whole job or applying any of
//! the eight D4 symmetries (rotations and reflections of the rectangle)
//! yields an isomorphic MDP: the action set is closed under D4
//! (cardinal/ordinal moves permute; `Widen` ↔ `Heighten` swap under the
//! transposing elements, and their aspect-ratio guards swap with them), and
//! every transition probability is a mean over a frontier set that maps to
//! the image action's frontier set. One synthesized strategy therefore
//! serves the whole orbit.
//!
//! [`canonicalize`] normalizes a job into that orbit's unique
//! representative: bounds anchored at `(1, 1)`, and the lexicographically
//! smallest encoding over the eight D4 images. The representative's FNV-1a
//! content digest is the cache address; [`JobTransform`] maps rectangles
//! and actions between the original and canonical frames so canonical
//! strategies can answer original-frame jobs.
//!
//! Hazard boxes participate in the encoding **unclipped** (in canonical
//! coordinates, but extending beyond the bounds if they did originally): a
//! box crossing the patch boundary never shares a key with its clipped
//! equivalent. The conservative choice keeps keys stable under the
//! supervisor's bounds-widening escalation, where the out-of-bounds
//! remainder of a crossing box becomes load-bearing.

use meda_core::{Action, ActionConfig, BuildError, Dir, ForceProvider, HazardBox, Ordinal};
use meda_core::{HazardedField, RawField, RoutingMdp};
use meda_grid::{ChipDims, Grid, Rect};

use crate::{Query, RoutingStrategy};

/// One element of the dihedral group D4 acting on an axis-aligned frame:
/// optionally transpose the axes, then reflect each output axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct D4 {
    /// Swap the x and y axes before reflecting.
    pub transpose: bool,
    /// Reflect the output x axis.
    pub flip_x: bool,
    /// Reflect the output y axis.
    pub flip_y: bool,
}

impl D4 {
    /// The identity element.
    pub const IDENTITY: D4 = D4 {
        transpose: false,
        flip_x: false,
        flip_y: false,
    };

    /// All eight elements, in the stable order used for canonical
    /// tie-breaking.
    pub const ELEMENTS: [D4; 8] = [
        D4 {
            transpose: false,
            flip_x: false,
            flip_y: false,
        },
        D4 {
            transpose: false,
            flip_x: true,
            flip_y: false,
        },
        D4 {
            transpose: false,
            flip_x: false,
            flip_y: true,
        },
        D4 {
            transpose: false,
            flip_x: true,
            flip_y: true,
        },
        D4 {
            transpose: true,
            flip_x: false,
            flip_y: false,
        },
        D4 {
            transpose: true,
            flip_x: true,
            flip_y: false,
        },
        D4 {
            transpose: true,
            flip_x: false,
            flip_y: true,
        },
        D4 {
            transpose: true,
            flip_x: true,
            flip_y: true,
        },
    ];

    /// The dimensions of the output frame for an input frame of `(w, h)`.
    #[must_use]
    pub const fn map_dims(self, dims: (u32, u32)) -> (u32, u32) {
        if self.transpose {
            (dims.1, dims.0)
        } else {
            dims
        }
    }

    /// Maps a 0-based local cell of a `(w, h)` frame into the output
    /// frame. The formula is affine, so coordinates outside the frame
    /// (unclipped hazard corners) map consistently too.
    #[must_use]
    pub const fn map_cell(self, cell: (i32, i32), dims: (u32, u32)) -> (i32, i32) {
        let (a, b) = if self.transpose {
            (cell.1, cell.0)
        } else {
            (cell.0, cell.1)
        };
        let (ow, oh) = self.map_dims(dims);
        let u = if self.flip_x { ow as i32 - 1 - a } else { a };
        let v = if self.flip_y { oh as i32 - 1 - b } else { b };
        (u, v)
    }

    /// Maps a displacement vector (no reflection offsets apply).
    #[must_use]
    pub const fn map_vec(self, delta: (i32, i32)) -> (i32, i32) {
        let (a, b) = if self.transpose {
            (delta.1, delta.0)
        } else {
            (delta.0, delta.1)
        };
        (
            if self.flip_x { -a } else { a },
            if self.flip_y { -b } else { b },
        )
    }

    /// The inverse element: `inv.map_cell(self.map_cell(c, dims),
    /// self.map_dims(dims)) == c`.
    #[must_use]
    pub fn inverse(self) -> D4 {
        for e in D4::ELEMENTS {
            if e.map_vec(self.map_vec((1, 0))) == (1, 0)
                && e.map_vec(self.map_vec((0, 1))) == (0, 1)
            {
                return e;
            }
        }
        // D4 is a group: every element has an inverse among ELEMENTS.
        D4::IDENTITY
    }

    /// Maps a 0-based local rectangle of a `(w, h)` frame (corner-wise,
    /// then re-normalized so `xa ≤ xb`, `ya ≤ yb`).
    #[must_use]
    pub fn map_local_rect(self, r: Rect, dims: (u32, u32)) -> Rect {
        let (x1, y1) = self.map_cell((r.xa, r.ya), dims);
        let (x2, y2) = self.map_cell((r.xb, r.yb), dims);
        Rect::new(x1.min(x2), y1.min(y2), x1.max(x2), y1.max(y2))
    }

    /// Maps a cardinal direction.
    #[must_use]
    pub fn map_dir(self, d: Dir) -> Dir {
        match self.map_vec(d.delta()) {
            (0, 1) => Dir::N,
            (0, -1) => Dir::S,
            (1, 0) => Dir::E,
            _ => Dir::W,
        }
    }

    /// Maps an ordinal direction (by its displacement vector: a diagonal
    /// maps to a diagonal, but its vertical component may come from the
    /// original's horizontal one under the transposing elements).
    #[must_use]
    pub fn map_ordinal(self, o: Ordinal) -> Ordinal {
        match self.map_vec(o.delta()) {
            (1, 1) => Ordinal::NE,
            (-1, 1) => Ordinal::NW,
            (1, -1) => Ordinal::SE,
            _ => Ordinal::SW,
        }
    }

    /// Maps a microfluidic action: moves permute among themselves, and the
    /// morphs `Widen`/`Heighten` swap whenever the element transposes the
    /// axes (the grow axis follows the transform). Satisfies the
    /// commutation law `map_rect(a.apply(r)) == map_action(a).apply(map_rect(r))`.
    #[must_use]
    pub fn map_action(self, a: Action) -> Action {
        match a {
            Action::Move(d) => Action::Move(self.map_dir(d)),
            Action::MoveDouble(d) => Action::MoveDouble(self.map_dir(d)),
            Action::MoveOrdinal(o) => Action::MoveOrdinal(self.map_ordinal(o)),
            // Widen(o) grows toward horizontal(o) along x and keeps the
            // vertical(o) side; Heighten(o) grows toward vertical(o) along
            // y and keeps the horizontal(o) side. Map (grow, keep) and
            // reassemble by the grow axis' new orientation.
            Action::Widen(o) => self.map_morph(o.horizontal(), o.vertical()),
            Action::Heighten(o) => self.map_morph(o.vertical(), o.horizontal()),
        }
    }

    fn map_morph(self, grow: Dir, keep: Dir) -> Action {
        let g = self.map_dir(grow);
        let k = self.map_dir(keep);
        if g.is_vertical() {
            Action::Heighten(ordinal_of(g, k))
        } else {
            Action::Widen(ordinal_of(k, g))
        }
    }
}

/// The ordinal with the given vertical and horizontal components.
fn ordinal_of(vertical: Dir, horizontal: Dir) -> Ordinal {
    match (vertical, horizontal) {
        (Dir::N, Dir::E) => Ordinal::NE,
        (Dir::N, _) => Ordinal::NW,
        (_, Dir::E) => Ordinal::SE,
        _ => Ordinal::SW,
    }
}

/// Largest job side either trust boundary accepts: a `meda serve` request's
/// chip coordinates (so its bounds, and the chip-sized force grid it is
/// lifted into) and a cache entry's canonical `width` / `height`. Sharing
/// one limit means every job a request can name can also be stored and
/// reloaded. 512 cells a side caps a force patch at 2 MiB, far beyond the
/// paper's 60×30 chips and the 90×90 bench rows.
pub const MAX_JOB_DIM: u32 = 512;

/// Most hazard boxes either trust boundary accepts per job (a serve
/// request or a cache entry).
pub const MAX_JOB_HAZARDS: usize = 1024;

/// A routing job in canonical frame: bounds anchored at `(1, 1)`, oriented
/// by the lexicographically smallest D4 image. This is the unit the
/// persistent strategy cache stores and synthesizes.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalJob {
    /// Canonical bounds width.
    pub width: u32,
    /// Canonical bounds height.
    pub height: u32,
    /// Start droplet in canonical coordinates.
    pub start: Rect,
    /// Goal region in canonical coordinates.
    pub goal: Rect,
    /// Base (hazard-free) effective force at every bounds cell, row-major
    /// from `(1, 1)`: index `(y − 1)·width + (x − 1)`.
    pub forces: Vec<f64>,
    /// Hazard boxes in canonical coordinates — **unclipped**: boxes that
    /// crossed the original bounds still cross them here, so a crossing
    /// box never aliases its clipped equivalent.
    pub hazards: Vec<HazardBox>,
    /// Action classes available to synthesis (D4-invariant as a whole:
    /// the aspect-ratio guard swaps between `Widen` and `Heighten` exactly
    /// when the actions do).
    pub config: ActionConfig,
    /// The synthesis query.
    pub query: Query,
}

/// The content-addressed identity of a canonical job: geometry plus the
/// FNV-1a digest over the full canonical encoding (geometry, action
/// configuration, query, hazards, force-patch bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalJobKey {
    /// Canonical bounds width.
    pub width: u32,
    /// Canonical bounds height.
    pub height: u32,
    /// Canonical start droplet.
    pub start: Rect,
    /// Canonical goal region.
    pub goal: Rect,
    /// FNV-1a digest of the full canonical encoding.
    pub digest: u64,
}

impl CanonicalJob {
    /// The canonical hazard bounds, anchored at `(1, 1)`.
    #[must_use]
    pub fn bounds(&self) -> Rect {
        Rect::new(1, 1, self.width as i32, self.height as i32)
    }

    /// The full canonical encoding as a word sequence — the value the
    /// digest hashes and the lex-min orbit selection compares.
    #[must_use]
    pub fn encode(&self) -> Vec<u64> {
        let rect_words = |r: Rect| {
            [
                r.xa as i64 as u64,
                r.ya as i64 as u64,
                r.xb as i64 as u64,
                r.yb as i64 as u64,
            ]
        };
        let mut words = vec![u64::from(self.width), u64::from(self.height)];
        words.extend(rect_words(self.start));
        words.extend(rect_words(self.goal));
        words.push(self.config.aspect_ratio_max.to_bits());
        words.push(u64::from(self.config.double_step));
        words.push(u64::from(self.config.ordinal));
        words.push(u64::from(self.config.morphing));
        words.push(match self.query {
            Query::MaxReachProbability => 0,
            Query::MinExpectedCycles => 1,
        });
        words.push(self.hazards.len() as u64);
        for b in &self.hazards {
            words.extend(rect_words(b.rect));
            words.push(b.factor.to_bits());
        }
        for f in &self.forces {
            words.push(f.to_bits());
        }
        words
    }

    /// FNV-1a digest of [`CanonicalJob::encode`] — the cache address.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for word in self.encode() {
            hash ^= word;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// The content-addressed key.
    #[must_use]
    pub fn key(&self) -> CanonicalJobKey {
        CanonicalJobKey {
            width: self.width,
            height: self.height,
            start: self.start,
            goal: self.goal,
            digest: self.digest(),
        }
    }

    /// Rebuilds the canonical-frame routing MDP from the stored force
    /// patch and hazards.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from the MDP builder.
    pub fn build_mdp(&self) -> Result<RoutingMdp, BuildError> {
        let dims = ChipDims::new(self.width, self.height);
        let grid = Grid::from_fn(dims, |cell| {
            let idx = (cell.y - 1) as usize * self.width as usize + (cell.x - 1) as usize;
            self.forces.get(idx).copied().unwrap_or(0.0)
        });
        let raw = RawField::new(grid);
        if self.hazards.is_empty() {
            RoutingMdp::build(self.start, self.goal, self.bounds(), &raw, &self.config)
        } else {
            let field = HazardedField::new(&raw, &self.hazards);
            RoutingMdp::build(self.start, self.goal, self.bounds(), &field, &self.config)
        }
    }

    /// Synthesizes the canonical-frame strategy: the primary query first,
    /// falling back to `Pmax` when `Rmin` is infeasible (mirroring the
    /// adaptive router), `None` when even `Pmax` is zero or the model
    /// cannot be built.
    #[must_use]
    pub fn synthesize(&self) -> Option<RoutingStrategy> {
        let mdp = self.build_mdp().ok()?;
        let strategy = crate::synthesize(&mdp, self.query)
            .or_else(|_| crate::synthesize(&mdp, Query::MaxReachProbability))
            .ok()?;
        if strategy.query() == Query::MaxReachProbability && strategy.value_at_init() <= 0.0 {
            return None;
        }
        Some(strategy)
    }
}

/// The frame mapping between an original job and its canonical
/// representative: the chosen D4 element plus the translation anchoring
/// the bounds at `(1, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTransform {
    elem: D4,
    inv: D4,
    origin: (i32, i32),
    src_dims: (u32, u32),
    canon_dims: (u32, u32),
}

impl JobTransform {
    /// The chosen D4 element.
    #[must_use]
    pub fn element(&self) -> D4 {
        self.elem
    }

    /// Original-frame rectangle → canonical frame.
    #[must_use]
    pub fn to_canonical_rect(&self, r: Rect) -> Rect {
        let local = Rect::new(
            r.xa - self.origin.0,
            r.ya - self.origin.1,
            r.xb - self.origin.0,
            r.yb - self.origin.1,
        );
        self.elem
            .map_local_rect(local, self.src_dims)
            .translate(1, 1)
    }

    /// Canonical-frame rectangle → original frame.
    #[must_use]
    pub fn from_canonical_rect(&self, r: Rect) -> Rect {
        let local = r.translate(-1, -1);
        self.inv
            .map_local_rect(local, self.canon_dims)
            .translate(self.origin.0, self.origin.1)
    }

    /// Original-frame action → canonical frame.
    #[must_use]
    pub fn to_canonical_action(&self, a: Action) -> Action {
        self.elem.map_action(a)
    }

    /// Canonical-frame action → original frame.
    #[must_use]
    pub fn from_canonical_action(&self, a: Action) -> Action {
        self.inv.map_action(a)
    }
}

/// Normalizes a routing job into its canonical representative and the
/// transform that produced it.
///
/// `field` is the **base** force field (health); `hazards` stay separate
/// so crossing boxes keep their unclipped extent in the key. Hazard boxes
/// that do not intersect `bounds` are dropped (they cannot affect the
/// model), matching the scoped-digest semantics of the in-memory library.
#[must_use]
pub fn canonicalize(
    start: Rect,
    goal: Rect,
    bounds: Rect,
    field: &dyn ForceProvider,
    hazards: &[HazardBox],
    config: &ActionConfig,
    query: Query,
) -> (CanonicalJob, JobTransform) {
    let src_dims = (bounds.width(), bounds.height());
    let origin = (bounds.xa, bounds.ya);
    let local = |r: Rect| {
        Rect::new(
            r.xa - origin.0,
            r.ya - origin.1,
            r.xb - origin.0,
            r.yb - origin.1,
        )
    };
    let local_start = local(start);
    let local_goal = local(goal);
    let relevant: Vec<HazardBox> = hazards
        .iter()
        .filter(|b| b.rect.intersects(bounds))
        .map(|b| HazardBox {
            rect: local(b.rect),
            factor: b.factor,
        })
        .collect();

    // Base forces in original row-major order (v·w + u over local coords).
    let (w, h) = (src_dims.0 as usize, src_dims.1 as usize);
    let mut base = vec![0.0f64; w * h];
    for (i, cell) in bounds.cells().enumerate() {
        base[i] = field.cell_force(cell);
    }

    let mut best: Option<(Vec<u64>, CanonicalJob, D4)> = None;
    for elem in D4::ELEMENTS {
        let (ow, oh) = elem.map_dims(src_dims);
        let mut forces = vec![0.0f64; w * h];
        for v in 0..h {
            for u in 0..w {
                let (cu, cv) = elem.map_cell((u as i32, v as i32), src_dims);
                forces[cv as usize * ow as usize + cu as usize] = base[v * w + u];
            }
        }
        let mut boxes: Vec<HazardBox> = relevant
            .iter()
            .map(|b| HazardBox {
                rect: elem.map_local_rect(b.rect, src_dims).translate(1, 1),
                factor: b.factor,
            })
            .collect();
        boxes.sort_by(|a, b| {
            (
                a.rect.xa,
                a.rect.ya,
                a.rect.xb,
                a.rect.yb,
                a.factor.to_bits(),
            )
                .partial_cmp(&(
                    b.rect.xa,
                    b.rect.ya,
                    b.rect.xb,
                    b.rect.yb,
                    b.factor.to_bits(),
                ))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let job = CanonicalJob {
            width: ow,
            height: oh,
            start: elem.map_local_rect(local_start, src_dims).translate(1, 1),
            goal: elem.map_local_rect(local_goal, src_dims).translate(1, 1),
            forces,
            hazards: boxes,
            config: *config,
            query,
        };
        let enc = job.encode();
        let better = match &best {
            None => true,
            Some((best_enc, _, _)) => enc < *best_enc,
        };
        if better {
            best = Some((enc, job, elem));
        }
    }
    // ELEMENTS is non-empty, so `best` is always set.
    let (_, job, elem) = best.unwrap_or_else(|| {
        let job = CanonicalJob {
            width: src_dims.0,
            height: src_dims.1,
            start: local_start.translate(1, 1),
            goal: local_goal.translate(1, 1),
            forces: base.clone(),
            hazards: relevant.clone(),
            config: *config,
            query,
        };
        (job.encode(), job, D4::IDENTITY)
    });
    let transform = JobTransform {
        elem,
        inv: elem.inverse(),
        origin,
        src_dims,
        canon_dims: (job.width, job.height),
    };
    (job, transform)
}

/// Rehydrates a canonical-frame strategy into the original frame: rebuilds
/// nothing but the bookkeeping — `mdp` is the original-frame model
/// (construction only, no solve), and every state's value and action are
/// copied through the transform. Returns `None` if a state fails to map
/// (impossible for a genuine D4 image; defensively treated as a miss).
#[must_use]
pub fn materialize(
    canon: &RoutingStrategy,
    transform: &JobTransform,
    mdp: RoutingMdp,
) -> Option<RoutingStrategy> {
    let n = mdp.len();
    let mut values = Vec::with_capacity(n);
    let mut choice = Vec::with_capacity(n);
    for i in 0..n {
        let rc = transform.to_canonical_rect(mdp.state(i));
        values.push(canon.value_at(rc)?);
        choice.push(canon.decide(rc).map(|a| transform.from_canonical_action(a)));
    }
    RoutingStrategy::from_parts(mdp, choice, values, canon.query())
}

/// The inverse of [`materialize`]: projects an original-frame strategy
/// into the canonical frame so it can be persisted content-addressed.
/// `canon_mdp` is the canonical model (from
/// [`CanonicalJob::build_mdp`]); every canonical state reads its value and
/// (mapped) action from the original-frame strategy.
#[must_use]
pub fn canonicalize_strategy(
    original: &RoutingStrategy,
    transform: &JobTransform,
    canon_mdp: RoutingMdp,
) -> Option<RoutingStrategy> {
    let n = canon_mdp.len();
    let mut values = Vec::with_capacity(n);
    let mut choice = Vec::with_capacity(n);
    for i in 0..n {
        let r = transform.from_canonical_rect(canon_mdp.state(i));
        values.push(original.value_at(r)?);
        choice.push(original.decide(r).map(|a| transform.to_canonical_action(a)));
    }
    RoutingStrategy::from_parts(canon_mdp, choice, values, original.query())
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_core::{DegradationField, UniformField};
    use meda_grid::Cell;

    #[test]
    fn inverse_round_trips_cells_and_dims() {
        let dims = (7, 4);
        for e in D4::ELEMENTS {
            let inv = e.inverse();
            let out_dims = e.map_dims(dims);
            assert_eq!(inv.map_dims(out_dims), dims);
            for u in -2..9i32 {
                for v in -2..6i32 {
                    let mapped = e.map_cell((u, v), dims);
                    assert_eq!(inv.map_cell(mapped, out_dims), (u, v), "{e:?}");
                }
            }
        }
    }

    #[test]
    fn action_map_commutes_with_rect_map() {
        let dims = (12, 9);
        let rects = [
            Rect::new(2, 2, 4, 5),
            Rect::new(0, 0, 3, 3),
            Rect::new(5, 1, 9, 2),
            Rect::new(1, 3, 2, 7),
        ];
        for e in D4::ELEMENTS {
            for r in rects {
                for a in Action::ALL {
                    if !a.is_applicable(r) {
                        continue;
                    }
                    let lhs = e.map_local_rect(a.apply(r), dims);
                    let rhs = e.map_action(a).apply(e.map_local_rect(r, dims));
                    assert_eq!(lhs, rhs, "{e:?} {a} on {r}");
                }
            }
        }
    }

    #[test]
    fn action_map_preserves_guards() {
        // class_enabled depends only on the droplet shape and the config;
        // the mapped action on the mapped droplet must agree.
        let config = ActionConfig::default();
        let narrow = ActionConfig {
            aspect_ratio_max: 1.5,
            ..ActionConfig::default()
        };
        let dims = (12, 9);
        for cfg in [config, narrow] {
            for e in D4::ELEMENTS {
                for r in [Rect::new(2, 2, 6, 4), Rect::new(1, 1, 2, 6)] {
                    for a in Action::ALL {
                        assert_eq!(
                            a.class_enabled(r, &cfg),
                            e.map_action(a)
                                .class_enabled(e.map_local_rect(r, dims), &cfg),
                            "{e:?} {a} on {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn translation_orbit_collapses_to_one_key() {
        let field = UniformField::new(0.9);
        let base = canonicalize(
            Rect::new(1, 1, 2, 2),
            Rect::new(7, 5, 8, 6),
            Rect::new(1, 1, 8, 6),
            &field,
            &[],
            &ActionConfig::default(),
            Query::MinExpectedCycles,
        );
        for (dx, dy) in [(3, 2), (10, 0), (0, 7), (21, 13)] {
            let shifted = canonicalize(
                Rect::new(1 + dx, 1 + dy, 2 + dx, 2 + dy),
                Rect::new(7 + dx, 5 + dy, 8 + dx, 6 + dy),
                Rect::new(1 + dx, 1 + dy, 8 + dx, 6 + dy),
                &field,
                &[],
                &ActionConfig::default(),
                Query::MinExpectedCycles,
            );
            assert_eq!(shifted.0.key(), base.0.key(), "translation ({dx},{dy})");
            assert_eq!(shifted.0, base.0);
        }
    }

    #[test]
    fn d4_orbit_collapses_to_one_key() {
        // A structured (asymmetric) degradation patch on a 9×5 bounds; all
        // eight D4 images of the whole job must share one canonical key.
        let dims = ChipDims::new(9, 5);
        let src_bounds = dims.bounds();
        let grid = Grid::from_fn(dims, |c| 0.3 + 0.07 * c.x as f64 + 0.011 * c.y as f64);
        let start = Rect::new(1, 1, 2, 2);
        let goal = Rect::new(8, 4, 9, 5);
        let hazards = [HazardBox::soft(Rect::new(4, 2, 6, 3), 0.5)];
        let base_field = DegradationField::new(grid.clone());
        let (base_job, _) = canonicalize(
            start,
            goal,
            src_bounds,
            &base_field,
            &hazards,
            &ActionConfig::default(),
            Query::MinExpectedCycles,
        );
        let src = (src_bounds.width(), src_bounds.height());
        for e in D4::ELEMENTS {
            let (ow, oh) = e.map_dims(src);
            let img_dims = ChipDims::new(ow, oh);
            // Image field: force at e(c) equals force at c.
            let inv = e.inverse();
            let img_grid = Grid::from_fn(img_dims, |c| {
                let (u, v) = inv.map_cell((c.x - 1, c.y - 1), (ow, oh));
                let cell = Cell::new(u + 1, v + 1);
                grid.get(cell).copied().unwrap_or(1.0)
            });
            let img_field = DegradationField::new(img_grid);
            let map = |r: Rect| e.map_local_rect(r.translate(-1, -1), src).translate(1, 1);
            let img_hazards: Vec<HazardBox> = hazards
                .iter()
                .map(|b| HazardBox {
                    rect: map(b.rect),
                    factor: b.factor,
                })
                .collect();
            let (img_job, _) = canonicalize(
                map(start),
                map(goal),
                img_dims.bounds(),
                &img_field,
                &img_hazards,
                &ActionConfig::default(),
                Query::MinExpectedCycles,
            );
            assert_eq!(img_job.key(), base_job.key(), "{e:?}");
            assert_eq!(img_job, base_job, "{e:?}");
        }
    }

    #[test]
    fn different_force_patches_get_different_digests() {
        let a = canonicalize(
            Rect::new(1, 1, 2, 2),
            Rect::new(5, 5, 6, 6),
            Rect::new(1, 1, 6, 6),
            &UniformField::new(0.9),
            &[],
            &ActionConfig::default(),
            Query::MinExpectedCycles,
        );
        let b = canonicalize(
            Rect::new(1, 1, 2, 2),
            Rect::new(5, 5, 6, 6),
            Rect::new(1, 1, 6, 6),
            &UniformField::new(0.8),
            &[],
            &ActionConfig::default(),
            Query::MinExpectedCycles,
        );
        assert_ne!(a.0.digest(), b.0.digest());
        // Query changes the digest too (the cached values mean different
        // things under Pmax and Rmin).
        let c = canonicalize(
            Rect::new(1, 1, 2, 2),
            Rect::new(5, 5, 6, 6),
            Rect::new(1, 1, 6, 6),
            &UniformField::new(0.9),
            &[],
            &ActionConfig::default(),
            Query::MaxReachProbability,
        );
        assert_ne!(a.0.digest(), c.0.digest());
    }

    /// Shrunk counterexample pin: a hazard box crossing the bounds must
    /// NOT share a key with its clipped equivalent, even though the two
    /// induce the same MDP today — the unclipped remainder becomes
    /// load-bearing if the bounds widen later (DESIGN.md §16).
    #[test]
    fn crossing_hazard_box_does_not_alias_its_clipped_equivalent() {
        let bounds = Rect::new(1, 1, 6, 4);
        let field = UniformField::new(0.9);
        let crossing = [HazardBox::soft(Rect::new(5, 2, 9, 3), 0.4)];
        let clipped = [HazardBox::soft(Rect::new(5, 2, 6, 3), 0.4)];
        let mk = |hz: &[HazardBox]| {
            canonicalize(
                Rect::new(1, 1, 2, 2),
                Rect::new(5, 3, 6, 4),
                bounds,
                &field,
                hz,
                &ActionConfig::default(),
                Query::MinExpectedCycles,
            )
            .0
        };
        let a = mk(&crossing);
        let b = mk(&clipped);
        assert_ne!(a.key(), b.key());
        assert_ne!(a.digest(), b.digest());
        // Sanity: the clipped variants themselves are stable.
        assert_eq!(mk(&clipped).key(), b.key());
    }

    #[test]
    fn transform_round_trips_rects_and_actions() {
        let dims = ChipDims::new(9, 5);
        let grid = Grid::from_fn(dims, |c| 0.3 + 0.07 * c.x as f64 + 0.011 * c.y as f64);
        let field = DegradationField::new(grid);
        let (_, tf) = canonicalize(
            Rect::new(2, 2, 3, 3),
            Rect::new(8, 4, 9, 5),
            dims.bounds(),
            &field,
            &[],
            &ActionConfig::default(),
            Query::MinExpectedCycles,
        );
        for r in [Rect::new(2, 2, 3, 3), Rect::new(5, 1, 7, 2)] {
            assert_eq!(tf.from_canonical_rect(tf.to_canonical_rect(r)), r);
        }
        for a in Action::ALL {
            assert_eq!(tf.from_canonical_action(tf.to_canonical_action(a)), a);
        }
    }

    #[test]
    fn canonical_synthesis_value_matches_original_frame() {
        // Synthesize the same job in the original and canonical frames:
        // the optimal value is frame-independent (up to float summation
        // order inside frontier means).
        let dims = ChipDims::new(9, 6);
        let grid = Grid::from_fn(dims, |c| 0.5 + 0.04 * c.x as f64 + 0.02 * c.y as f64);
        let field = DegradationField::new(grid);
        let start = Rect::new(1, 4, 2, 5);
        let goal = Rect::new(8, 1, 9, 2);
        let mdp = RoutingMdp::build(start, goal, dims.bounds(), &field, &ActionConfig::default())
            .expect("build");
        let direct = crate::synthesize(&mdp, Query::MinExpectedCycles).expect("direct");
        let (job, tf) = canonicalize(
            start,
            goal,
            dims.bounds(),
            &field,
            &[],
            &ActionConfig::default(),
            Query::MinExpectedCycles,
        );
        let canon = job.synthesize().expect("canonical");
        assert!(
            (canon.value_at_init() - direct.value_at_init()).abs()
                < 1e-6 * (1.0 + direct.value_at_init().abs()),
            "canonical {} vs direct {}",
            canon.value_at_init(),
            direct.value_at_init()
        );
        // Materialized back into the original frame, the strategy walks
        // the original job to its goal.
        let materialized = materialize(&canon, &tf, mdp).expect("materialize");
        let path = materialized.nominal_path();
        assert!(materialized.is_goal(*path.last().expect("nonempty")));
    }
}
