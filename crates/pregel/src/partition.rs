//! A partition: the flat columns one worker's share of the graph lives
//! in, and the two-part byte layout spill segments and checkpoint files
//! share (DESIGN.md, "Engine performance" and "Out-of-core execution").
//!
//! Every vertex has a *slot*, and slot order is the order vertices
//! compute, send and fold in. Per slot there is an id, a value, an `awake`
//! bit (live, not halted), a `mail` bit and an inbox entry; out-edges are
//! CSR. Edge lists that an edit or a mutation changed wait in `edited`,
//! and removed vertices leave tombstone slots, until the next encode or
//! sizing folds both away. The inbox is one arena of messages in arrival
//! order, each linked to the one before it for its slot: delivery
//! appends, the sweep takes and then clears, so a superstep costs the
//! messages it moves. A partition encodes as two framed parts of codec
//! sequences (each slot's messages newest first):
//!
//! ```text
//! topology  ids[n], degrees[n], edges[Σ degrees]
//! state     halted words[⌈n/64⌉], values[n], inbox counts[n], messages[Σ counts]
//! ```
//!
//! A checkpoint file is the topology part followed by the state part.
//! Decoding checks every column's length against the one it must agree
//! with, halted words against `n`, and ids for duplicates before it builds
//! anything; with the codec rejecting over-long varints, bytes that decode
//! re-encode to themselves.

use std::collections::hash_map::Entry;

use serde::de::{Deserialize, DeserializeOwned};
use serde::ser::{Serialize, SerializeSeq, Serializer};

use crate::computation::{Computation, VertexHandle};
use crate::graph::Graph;
use crate::hash::{partition_for, FxHashMap};
use crate::types::Edge;

type EdgeOf<C> = Edge<<C as Computation>::Id, <C as Computation>::EValue>;

/// No message: an empty inbox end, or the end of a slot's chain.
const NONE: usize = usize::MAX;

/// One worker's share of the graph, as columns (see the module docs).
pub(crate) struct Partition<C: Computation> {
    ids: Vec<C::Id>,
    values: Vec<C::VValue>,
    offsets: Vec<usize>,
    edges: Vec<EdgeOf<C>>,
    edited: FxHashMap<usize, Vec<EdgeOf<C>>>,
    inbox: Inbox<C::Message>,
    index: FxHashMap<C::Id, usize>,
    awake: Vec<u64>,
    mail: Vec<u64>,
    live_edges: u64,
    /// Framed size of the topology part, kept until the topology changes.
    pub(crate) topology_bytes: Option<u64>,
    /// Whether the out-of-core store's topology file holds this topology;
    /// any topology change clears it, with `topology_bytes`.
    pub(crate) topology_spilled: bool,
}

/// Delivered messages: `arena` in arrival order, each with the index of
/// the previous message for the same slot; `last[slot]` is a slot's
/// newest, `NONE` when it has none. Appending writes nothing but the new
/// entry and the slot's `last`.
struct Inbox<M> {
    last: Vec<usize>,
    arena: Vec<(Option<M>, usize)>,
    /// Messages delivered and not yet taken or dropped.
    pending: usize,
    /// Where [`Inbox::take`] lines up a slot's messages when it has several.
    gathered: Vec<M>,
}

impl<M> Inbox<M> {
    fn push(&mut self, slot: usize, message: M) {
        let previous = std::mem::replace(&mut self.last[slot], self.arena.len());
        self.arena.push((Some(message), previous));
        self.pending += 1;
    }

    /// `slot`'s arena entries, newest first.
    fn chain(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        let newest = Some(self.last[slot]).filter(|&at| at != NONE);
        std::iter::successors(newest, |&at| Some(self.arena[at].1).filter(|&prev| prev != NONE))
    }

    /// `slot`'s messages, newest first.
    fn messages(&self, slot: usize) -> impl Iterator<Item = &M> {
        self.chain(slot).map(|at| self.arena[at].0.as_ref().expect("a message is taken once"))
    }

    /// `slot`'s messages in arrival order, taken: one is lent in place,
    /// several are moved into `gathered`.
    #[inline(always)]
    fn take(&mut self, slot: usize) -> &[M] {
        let newest = std::mem::replace(&mut self.last[slot], NONE);
        if newest == NONE {
            return &[];
        }
        if self.arena[newest].1 == NONE {
            self.pending -= 1;
            return std::slice::from_ref(self.arena[newest].0.as_ref().expect("taken once"));
        }
        self.gathered.clear();
        let mut at = newest;
        while at != NONE {
            let (message, previous) = &mut self.arena[at];
            self.gathered.push(message.take().expect("a message is taken once"));
            at = *previous;
        }
        self.gathered.reverse();
        self.pending -= self.gathered.len();
        &self.gathered
    }

    /// Forgets `slot`'s messages; the arena drops them at the next sweep.
    fn drop_slot(&mut self, slot: usize) {
        self.pending -= self.chain(slot).count();
        self.last[slot] = NONE;
    }
}

fn bit(words: &[u64], slot: usize) -> bool {
    words[slot / 64] >> (slot % 64) & 1 == 1
}

fn set_bit(words: &mut [u64], slot: usize, on: bool) {
    let word = &mut words[slot / 64];
    *word = (*word & !(1 << (slot % 64))) | (u64::from(on) << (slot % 64));
}

/// The next slot to compute — awake, or halted with mail — in ascending
/// order; the cursor is `(next word, bits left of this one)` from `(0, 0)`.
#[inline(always)]
fn next_scheduled(awake: &[u64], mail: &[u64], (word, bits): &mut (usize, u64)) -> Option<usize> {
    while *bits == 0 {
        *bits = awake.get(*word)? | mail[*word];
        *word += 1;
    }
    let slot = (*word - 1) * 64 + bits.trailing_zeros() as usize;
    *bits &= *bits - 1;
    Some(slot)
}

impl<C: Computation> Partition<C> {
    pub(crate) fn new() -> Self {
        Self::with_capacity((0, 0))
    }

    /// An empty partition with room for `(vertices, edges)`.
    fn with_capacity((n, m): (usize, usize)) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        Self {
            ids: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
            offsets,
            edges: Vec::with_capacity(m),
            edited: FxHashMap::default(),
            inbox: Inbox {
                last: Vec::with_capacity(n),
                arena: Vec::new(),
                pending: 0,
                gathered: Vec::new(),
            },
            index: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            awake: Vec::with_capacity(n.div_ceil(64)),
            mail: Vec::with_capacity(n.div_ceil(64)),
            live_edges: 0,
            topology_bytes: None,
            topology_spilled: false,
        }
    }

    /// Appends a live, awake vertex with no mail; false if `id` is live.
    fn push(
        &mut self,
        id: C::Id,
        value: C::VValue,
        edges: impl IntoIterator<Item = EdgeOf<C>>,
    ) -> bool {
        let slot = self.ids.len();
        match self.index.entry(id) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(entry) => entry.insert(slot),
        };
        if slot.is_multiple_of(64) {
            self.awake.push(0);
            self.mail.push(0);
        }
        set_bit(&mut self.awake, slot, true);
        self.edges.extend(edges);
        self.live_edges += (self.edges.len() - self.offsets[slot]) as u64;
        self.offsets.push(self.edges.len());
        self.ids.push(id);
        self.values.push(value);
        self.inbox.last.push(NONE);
        true
    }

    fn edges_of(&self, slot: usize) -> &[EdgeOf<C>] {
        slot_edges(&self.offsets, &self.edges, &self.edited, slot)
    }

    fn touch_topology(&mut self) {
        self.topology_bytes = None;
        self.topology_spilled = false;
    }

    /// `(live vertices, live edges, awake vertices)`.
    pub(crate) fn counts(&self) -> (u64, u64, u64) {
        let awake = self.awake.iter().map(|w| u64::from(w.count_ones())).sum();
        (self.index.len() as u64, self.live_edges, awake)
    }

    /// The live edges, counted rather than carried.
    pub(crate) fn count_edges(&self) -> u64 {
        self.index.values().map(|&slot| self.edges_of(slot).len() as u64).sum()
    }

    /// Deals `graph`'s vertices to `n` partitions by id hash, in graph
    /// order: column splits into columns sized exactly beforehand, no
    /// allocation per vertex.
    pub(crate) fn split(graph: Graph<C::Id, C::VValue, C::EValue>, n: usize) -> Vec<Self> {
        let (ids, values, offsets, edges) = graph.into_columns();
        let owners: Vec<usize> = ids.iter().map(|id| partition_for(id, n)).collect();
        let mut sizes = vec![(0, 0); n];
        for (&p, range) in owners.iter().zip(offsets.windows(2)) {
            sizes[p] = (sizes[p].0 + 1, sizes[p].1 + range[1] - range[0]);
        }
        let mut parts: Vec<Self> = sizes.into_iter().map(Self::with_capacity).collect();
        let mut edges = edges.into_iter();
        for (((id, value), range), p) in
            ids.into_iter().zip(values).zip(offsets.windows(2)).zip(owners)
        {
            parts[p].push(id, value, edges.by_ref().take(range[1] - range[0]));
        }
        parts
    }

    /// The live vertices of `parts`, concatenated in partition and slot
    /// order.
    pub(crate) fn concat(parts: Vec<Self>) -> Graph<C::Id, C::VValue, C::EValue> {
        let (mut ids, mut values, mut offsets, mut edges) =
            (Vec::new(), Vec::new(), vec![0], Vec::new());
        for mut part in parts {
            part.fold();
            let base = edges.len();
            offsets.extend(part.offsets[1..].iter().map(|end| base + end));
            ids.append(&mut part.ids);
            values.append(&mut part.values);
            edges.append(&mut part.edges);
        }
        Graph::from_columns(ids, values, offsets, edges)
    }

    /// Folds edited edge lists back into the columns and drops tombstones,
    /// keeping slot order: afterwards the partition is what decoding its
    /// bytes gives. Costs the partition, and nothing when there is no edit
    /// and no tombstone.
    fn fold(&mut self) {
        if self.edited.is_empty() && self.index.len() == self.ids.len() {
            return;
        }
        let old = std::mem::replace(self, Self::new());
        let Self { ids, values, offsets, edges, mut edited, inbox, index, awake, mail, .. } = old;
        let mut stored = edges.into_iter();
        for (slot, ((id, value), range)) in
            ids.into_iter().zip(values).zip(offsets.windows(2)).enumerate()
        {
            let replaced = edited.remove(&slot);
            let keep = replaced.is_none();
            let kept = stored.by_ref().take(range[1] - range[0]).filter(|_| keep);
            if index.get(&id) != Some(&slot) {
                kept.for_each(drop);
                continue;
            }
            self.push(id, value, kept.chain(replaced.into_iter().flatten()));
            let new = self.ids.len() - 1;
            set_bit(&mut self.awake, new, bit(&awake, slot));
            set_bit(&mut self.mail, new, bit(&mail, slot));
            self.inbox.last[new] = inbox.last[slot];
        }
        Inbox {
            arena: self.inbox.arena,
            pending: self.inbox.pending,
            gathered: self.inbox.gathered,
            ..
        } = inbox;
    }

    /// Runs `compute` on every slot that is awake or has mail, in slot
    /// order, with the slot's messages; records its vote to halt and keeps
    /// any edge edit. The inbox is empty afterwards. Inlined with the
    /// helpers it calls: left to itself the compiler kept them apart, and
    /// PageRank on 2^11 vertices swept 20% slower.
    #[inline(always)]
    pub(crate) fn compute_scheduled(
        &mut self,
        mut compute: impl FnMut(&mut VertexHandle<'_, C::Id, C::VValue, C::EValue>, &[C::Message]),
    ) {
        let Self { ids, values, offsets, edges, edited, inbox, awake, mail, live_edges, .. } = self;
        let mut edits = false;
        let mut cursor = (0, 0);
        while let Some(slot) = next_scheduled(awake, mail, &mut cursor) {
            set_bit(mail, slot, false);
            let entry = slot_edges(offsets, edges, edited, slot);
            let degree = entry.len() as u64;
            let mut handle = VertexHandle::over_columns(ids[slot], &mut values[slot], entry);
            compute(&mut handle, inbox.take(slot));
            set_bit(awake, slot, !handle.has_voted_halt());
            if let Some(list) = handle.into_edits() {
                *live_edges = *live_edges + list.len() as u64 - degree;
                edited.insert(slot, list);
                edits = true;
            }
        }
        inbox.arena.clear();
        if edits {
            self.touch_topology();
        }
    }

    /// Delivers `message` to live vertex `target`, folded with `combiner`
    /// into the one message there if given; false if `target` is not live.
    pub(crate) fn deliver(
        &mut self,
        target: &C::Id,
        message: C::Message,
        combiner: Option<&C>,
    ) -> bool {
        let Some(&slot) = self.index.get(target) else { return false };
        set_bit(&mut self.mail, slot, true);
        let newest = self.inbox.last[slot];
        match combiner {
            Some(c) if newest != NONE => {
                let acc = self.inbox.arena[newest].0.as_mut().expect("a message is taken once");
                *acc = c.combine(acc, &message);
            }
            _ => self.inbox.push(slot, message),
        }
        true
    }

    /// Applies `f` to a copy of live vertex `source`'s out-edges that
    /// replaces them; false, with `f` not called, if `source` is not live.
    pub(crate) fn edit_edges(
        &mut self,
        source: &C::Id,
        f: impl FnOnce(&mut Vec<EdgeOf<C>>) -> bool,
    ) -> bool {
        let Some(&slot) = self.index.get(source) else { return false };
        self.touch_topology();
        let Self { offsets, edges, edited, live_edges, .. } = self;
        let list =
            edited.entry(slot).or_insert_with(|| edges[offsets[slot]..offsets[slot + 1]].to_vec());
        let before = list.len() as u64;
        let changed = f(list);
        *live_edges = *live_edges + list.len() as u64 - before;
        changed
    }

    /// Adds a vertex; false if `id` is live.
    pub(crate) fn add_vertex(&mut self, id: C::Id, value: C::VValue) -> bool {
        let added = self.push(id, value, []);
        if added {
            self.touch_topology();
        }
        added
    }

    /// Removes a vertex, leaving a tombstone; false if `id` is not live.
    pub(crate) fn remove_vertex(&mut self, id: &C::Id) -> bool {
        let Some(slot) = self.index.remove(id) else { return false };
        self.touch_topology();
        set_bit(&mut self.awake, slot, false);
        set_bit(&mut self.mail, slot, false);
        self.live_edges -= self.edges_of(slot).len() as u64;
        self.inbox.drop_slot(slot);
        true
    }

    /// The framed topology and state part sizes: the out-of-core charge.
    /// The topology is sized once per version.
    pub(crate) fn charge(&mut self) -> Result<(u64, u64), graft_codec::Error> {
        self.fold();
        let topology = match self.topology_bytes {
            Some(bytes) => bytes,
            None => graft_codec::framed_size(&self.topology())?,
        };
        self.topology_bytes = Some(topology);
        Ok((topology, graft_codec::framed_size(&self.state())?))
    }

    /// The framed topology part.
    pub(crate) fn encode_topology(&mut self) -> Result<Vec<u8>, graft_codec::Error> {
        self.fold();
        let mut out = Vec::with_capacity(self.topology_bytes.unwrap_or(0) as usize);
        graft_codec::write_framed(&mut out, &self.topology())?;
        Ok(out)
    }

    /// Appends the framed state part to `out`.
    pub(crate) fn encode_state(&mut self, out: &mut Vec<u8>) -> Result<(), graft_codec::Error> {
        self.fold();
        graft_codec::write_framed(out, &self.state())
    }

    fn topology(&self) -> impl Serialize + '_ {
        let degrees = || self.offsets.windows(2).map(|w| (w[1] - w[0]) as u64);
        (&self.ids[..], Column(self.ids.len(), degrees), &self.edges[..])
    }

    fn state(&self) -> impl Serialize + '_ {
        let n = self.ids.len();
        let halted =
            move || self.awake.iter().enumerate().map(move |(w, word)| !word & live_mask(n, w));
        let counts = move || (0..n).map(|slot| self.inbox.chain(slot).count() as u64);
        let messages = move || (0..n).flat_map(|slot| self.inbox.messages(slot));
        (
            Column(self.awake.len(), halted),
            &self.values[..],
            Column(n, counts),
            Column(self.inbox.pending, messages),
        )
    }

    /// Rebuilds a partition from a checkpoint file: both parts, framed.
    pub(crate) fn decode_file(bytes: &[u8]) -> Result<Self, graft_codec::Error> {
        let (len, prefix) = graft_codec::varint::read_u64(bytes)?;
        let split = usize::try_from(len).ok().and_then(|len| len.checked_add(prefix));
        match split.filter(|&split| split <= bytes.len()) {
            Some(split) => Self::decode(&bytes[..split], &bytes[split..]),
            None => Err(graft_codec::Error::UnexpectedEof),
        }
    }

    /// Rebuilds a partition from its two parts (framed, as encoded),
    /// checking structure before building anything.
    pub(crate) fn decode(topology: &[u8], state: &[u8]) -> Result<Self, graft_codec::Error> {
        let corrupt = |what: String| Err(graft_codec::Error::Message(what));
        let mut de = Part::new(topology)?;
        let ids: Vec<C::Id> = de.column(None)?;
        let n = ids.len();
        let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
        offsets.push(0);
        for degree in de.column::<u64>(Some(n))? {
            match usize::try_from(degree)
                .ok()
                .and_then(|d| offsets[offsets.len() - 1].checked_add(d))
            {
                Some(end) => offsets.push(end),
                None => return corrupt("degrees overflow".into()),
            }
        }
        let edges: Vec<EdgeOf<C>> = de.column(Some(offsets[n]))?;
        de.finish()?;

        let mut de = Part::new(state)?;
        let halted: Vec<u64> = de.column(Some(n.div_ceil(64)))?;
        if let Some(w) =
            halted.iter().enumerate().position(|(w, word)| word & !live_mask(n, w) != 0)
        {
            return corrupt(format!("halted word {w} marks slots past {n}"));
        }
        let values: Vec<C::VValue> = de.column(Some(n))?;
        let counts: Vec<u64> = de.column(Some(n))?;
        let total = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
        let Some(total) = total.and_then(|t| usize::try_from(t).ok()) else {
            return corrupt("inbox counts overflow".into());
        };
        let messages: Vec<C::Message> = de.column(Some(total))?;
        de.finish()?;

        let mut index = FxHashMap::with_capacity_and_hasher(n, Default::default());
        for (slot, &id) in ids.iter().enumerate() {
            if index.insert(id, slot).is_some() {
                return corrupt(format!("vertex {id} is in two slots"));
            }
        }
        let mut inbox = Inbox {
            last: vec![NONE; n],
            arena: Vec::with_capacity(total),
            pending: 0,
            gathered: Vec::new(),
        };
        let mut mail = vec![0; halted.len()];
        let mut messages = messages.into_iter();
        for (slot, &count) in counts.iter().enumerate().filter(|(_, &count)| count > 0) {
            set_bit(&mut mail, slot, true);
            // Newest first, as encoded: each links to the one after it.
            let (at, count) = (inbox.arena.len(), count as usize);
            for (i, message) in messages.by_ref().take(count).enumerate() {
                inbox.arena.push((Some(message), if i + 1 < count { at + i + 1 } else { NONE }));
            }
            inbox.last[slot] = at;
            inbox.pending += count;
        }
        Ok(Self {
            live_edges: edges.len() as u64,
            ids,
            values,
            offsets,
            edges,
            inbox,
            index,
            awake: halted.iter().enumerate().map(|(w, word)| !word & live_mask(n, w)).collect(),
            mail,
            ..Self::new()
        })
    }
}

#[inline(always)]
fn slot_edges<'a, E>(
    offsets: &[usize],
    edges: &'a [E],
    edited: &'a FxHashMap<usize, Vec<E>>,
    slot: usize,
) -> &'a [E] {
    let stored = &edges[offsets[slot]..offsets[slot + 1]];
    match edited.is_empty() {
        true => stored,
        false => edited.get(&slot).map_or(stored, Vec::as_slice),
    }
}

/// The bits of word `w` that stand for one of `n` slots.
fn live_mask(n: usize, w: usize) -> u64 {
    match n.saturating_sub(w * 64) {
        left if left >= 64 => u64::MAX,
        left => (1 << left) - 1,
    }
}

/// `len` elements from `items`, as a codec sequence.
struct Column<F>(usize, F);

impl<T: Serialize, I: Iterator<Item = T>, F: Fn() -> I> Serialize for Column<F> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.0))?;
        for item in (self.1)() {
            seq.serialize_element(&item)?;
        }
        seq.end()
    }
}

/// A decoder over one framed part: a run of columns.
struct Part<'a>(graft_codec::Deserializer<'a>);

impl<'a> Part<'a> {
    fn new(bytes: &'a [u8]) -> Result<Self, graft_codec::Error> {
        let (len, prefix) = graft_codec::varint::read_u64(bytes)?;
        if (bytes.len() - prefix) as u64 != len {
            let cause = format!("a part of {} bytes frames {len}", bytes.len());
            return Err(graft_codec::Error::Message(cause));
        }
        Ok(Self(graft_codec::Deserializer::new(&bytes[prefix..])))
    }

    /// A column, which must hold `expected` elements when that is given;
    /// room is reserved only for elements the remaining bytes could hold.
    fn column<T: DeserializeOwned>(
        &mut self,
        expected: Option<usize>,
    ) -> Result<Vec<T>, graft_codec::Error> {
        let len = usize::try_from(u64::deserialize(&mut self.0)?).ok();
        let Some(len) = len.filter(|&len| expected.is_none_or(|expected| expected == len)) else {
            return Err(graft_codec::Error::Message(format!(
                "a column of {len:?}, not {expected:?}"
            )));
        };
        let mut out = Vec::with_capacity(len.min(self.0.remaining()));
        for _ in 0..len {
            out.push(T::deserialize(&mut self.0)?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), graft_codec::Error> {
        match self.0.remaining() {
            0 => Ok(()),
            left => Err(graft_codec::Error::TrailingBytes(left)),
        }
    }
}

/// The adopt-time charge of the largest of the `num_partitions` partitions
/// `graph` splits into, sized over `graph` itself through the same
/// columns a partition encodes.
pub(crate) fn max_split_charge<C: Computation>(
    graph: &Graph<C::Id, C::VValue, C::EValue>,
    num_partitions: usize,
) -> u64 {
    let owner: Vec<usize> =
        graph.vertex_ids().iter().map(|id| partition_for(id, num_partitions)).collect();
    (0..num_partitions)
        .map(|p| {
            let slots = || graph.iter().zip(&owner).filter(move |(_, &o)| o == p).map(|(v, _)| v);
            let n = slots().count();
            let m = slots().map(|(_, _, e)| e.len()).sum();
            let topology = (
                Column(n, || slots().map(|(id, _, _)| id)),
                Column(n, || slots().map(|(_, _, e)| e.len() as u64)),
                Column(m, || slots().flat_map(|(_, _, e)| e)),
            );
            let state = (
                Column(n.div_ceil(64), || std::iter::repeat_n(0u64, n.div_ceil(64))),
                Column(n, || slots().map(|(_, v, _)| v)),
                Column(n, || std::iter::repeat_n(0u64, n)),
                Column(0, std::iter::empty::<C::Message>),
            );
            graft_codec::framed_size(&topology).unwrap_or(0)
                + graft_codec::framed_size(&state).unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
pub(crate) mod tests {
    use std::marker::PhantomData;
    use std::sync::Arc;

    use graft_dfs::{FileSystem, InMemoryFs};
    use graft_sched::sync::Mutex as SchedMutex;
    use rand::{Rng, SeedableRng};
    use serde::{Deserialize, Serialize};

    use super::*;
    use crate::checkpoint::{
        encode_partition, restore_partitions, write_checkpoint, write_resident_partitions,
        CheckpointConfig,
    };
    use crate::computation::{ContextOf, VertexHandleOf};
    use crate::context::Mutation::{AddVertex, RemoveVertex};
    use crate::engine::apply_mutations;
    use crate::ooc::{estimate_max_partition_bytes, OocConfig, SpillStore};
    use crate::types::{Value, VertexId};

    /// A computation of any shape that never runs: partitions are built
    /// and moved around here, not computed.
    pub(crate) struct Shape<I, V, E>(PhantomData<(I, V, E)>);

    impl<I: VertexId, V: Value, E: Value> Computation for Shape<I, V, E> {
        type Id = I;
        type VValue = V;
        type EValue = E;
        type Message = V;

        fn compute(&self, _: &mut VertexHandleOf<'_, Self>, _: &[V], _: &mut ContextOf<'_, Self>) {}
    }

    pub(crate) type Noop = Shape<u64, i64, ()>;

    /// A vertex as a test sees it: id, value, edges, halted, inbox in
    /// arrival order.
    type Vertex<C> = (
        <C as Computation>::Id,
        <C as Computation>::VValue,
        Vec<EdgeOf<C>>,
        bool,
        Vec<<C as Computation>::Message>,
    );

    impl<C: Computation> Partition<C> {
        /// The live vertices in slot order.
        pub(crate) fn dump(&self) -> Vec<Vertex<C>> {
            (0..self.ids.len())
                .filter(|&slot| self.index.get(&self.ids[slot]) == Some(&slot))
                .map(|slot| {
                    let mut messages: Vec<_> = self.inbox.messages(slot).cloned().collect();
                    messages.reverse();
                    let edges = self.edges_of(slot).to_vec();
                    let halted = !bit(&self.awake, slot);
                    (self.ids[slot], self.values[slot].clone(), edges, halted, messages)
                })
                .collect()
        }
    }

    /// `(id, value, edge targets, halted, inbox)`.
    type Spec<'a> = (u64, i64, &'a [u64], bool, &'a [i64]);

    /// A partition of `vertices`, built the way a job builds one.
    fn partition(vertices: &[Spec<'_>]) -> Partition<Noop> {
        let mut graph = Graph::builder();
        for &(id, value, ..) in vertices {
            graph.add_vertex(id, value).unwrap();
        }
        for &(id, _, targets, ..) in vertices {
            for &target in targets {
                graph.add_edge(id, target, ()).unwrap();
            }
        }
        let mut p = Partition::split(graph.build().unwrap(), 1).remove(0);
        p.compute_scheduled(|vertex, _| {
            if vertices.iter().any(|v| v.0 == vertex.id() && v.3) {
                vertex.vote_to_halt();
            }
        });
        for &(id, _, _, _, inbox) in vertices {
            for &message in inbox {
                p.deliver(&id, message, None);
            }
        }
        p
    }

    /// Awake with mail, and halted; then awake, halted with mail,
    /// removed, and removed then re-added.
    pub(crate) fn sample_partitions() -> Vec<Partition<Noop>> {
        let a = partition(&[(1, 10, &[2], false, &[7, 8]), (3, 30, &[], true, &[])]);
        let mut b = partition(&[
            (2, 20, &[1], false, &[]),
            (4, 40, &[], true, &[9]),
            (6, 60, &[2], false, &[]),
            (8, 80, &[4], false, &[5]),
        ]);
        apply_mutations(&mut [&mut b], vec![RemoveVertex(6), RemoveVertex(8), AddVertex(8, 81)]);
        vec![a, b]
    }

    /// Every cut of `bytes`, then every byte with each of its bits, and
    /// all of them, flipped.
    fn damaged(bytes: &[u8]) -> Vec<Vec<u8>> {
        let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
        let flips = (0..bytes.len()).flat_map(|at| {
            [1u8, 2, 4, 8, 16, 32, 64, 128, 255].map(|mask| {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= mask;
                flipped
            })
        });
        cuts.chain(flips).collect()
    }

    /// A damaged checkpoint file or spill part restores or loads as a
    /// typed error, or as a partition whose bytes are the damaged bytes;
    /// it never panics.
    #[test]
    fn corrupt_checkpoint_files_and_spill_parts_fail_typed_or_reencode_identically() {
        let mut reencoded = 0;
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        let config = CheckpointConfig::new(1, "/ckpt");
        let mut partitions = sample_partitions();
        write_checkpoint(&fs, &config, 0, 2, vec![], |dir| {
            write_resident_partitions(&fs, dir, partitions.iter_mut())
        })
        .unwrap();
        for p in 0..2 {
            let path = format!("/ckpt/cp_0/part_{p}.ckpt");
            for bytes in damaged(&fs.read_all(&path).unwrap()) {
                fs.write_all(&path, &bytes).unwrap();
                if let Ok((mut restored, _)) = restore_partitions::<Noop>(&fs, &config, 0, &[p]) {
                    assert_eq!(encode_partition(&mut restored[0].1, p).unwrap(), bytes);
                    reencoded += 1;
                }
            }
        }

        // A budget of nothing spills both partitions as they are adopted.
        let spilled = || {
            let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
            let store = SpillStore::<Noop>::new(fs.clone(), &OocConfig::new(0, "/ooc"), None, 2);
            let parts: Vec<_> = sample_partitions().into_iter().map(SchedMutex::new).collect();
            store.adopt(&parts).unwrap();
            (fs, store, parts)
        };
        for p in 0..2 {
            let paths = [format!("/ooc/parts/p{p}.topo"), format!("/ooc/parts/p{p}.seg")];
            let originals = paths.clone().map(|path| spilled().0.read_all(&path).unwrap());
            for (part, path) in paths.iter().enumerate() {
                for bytes in damaged(&originals[part]) {
                    let (fs, store, parts) = spilled();
                    fs.write_all(path, &bytes).unwrap();
                    let Ok(_pin) = store.pin(&parts, p, false) else { continue };
                    let mut expected = originals.clone();
                    expected[part] = bytes;
                    let mut loaded = parts[p].lock();
                    let mut state = Vec::new();
                    loaded.encode_state(&mut state).unwrap();
                    assert_eq!([loaded.encode_topology().unwrap(), state], expected);
                    reencoded += 1;
                }
            }
        }
        assert!(reencoded > 0, "no damaged input ever decoded");
    }

    /// A string id that is `Copy`: its text lives for the whole test run.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
    struct Name(&'static str);

    impl std::fmt::Display for Name {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(self.0)
        }
    }

    impl Serialize for Name {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            serializer.serialize_str(self.0)
        }
    }

    impl<'de> Deserialize<'de> for Name {
        fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
            String::deserialize(deserializer).map(|text| Name(Box::leak(text.into_boxed_str())))
        }
    }

    fn assert_estimate_is_the_largest_charge<C: Computation>(
        graph: &Graph<C::Id, C::VValue, C::EValue>,
    ) {
        for n in [1, 2, 7] {
            let charges = Partition::<C>::split(graph.clone(), n).into_iter().map(|mut p| {
                let (topology, state) = p.charge().unwrap();
                topology + state
            });
            assert_eq!(
                estimate_max_partition_bytes::<C>(graph, n),
                charges.max().unwrap(),
                "{n} partitions"
            );
        }
    }

    /// GA0018 and budgets sized from the estimate see exactly what the
    /// store charges a freshly built partition when it adopts it.
    #[test]
    fn the_estimate_is_the_adopt_time_charge_of_the_largest_partition() {
        // PageRank's shape on an RMAT graph: 2^10 vertices, skewed degrees.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut rmat = Graph::<u64, f64, ()>::builder();
        for v in 0..1024 {
            rmat.add_vertex(v, 0.0).unwrap();
        }
        for _ in 0..8192 {
            let (mut a, mut b) = (0, 0);
            for _ in 0..10 {
                let quadrant =
                    [0.57, 0.76, 0.95].iter().filter(|&&p| rng.gen::<f64>() >= p).count();
                (a, b) = (a * 2 + (quadrant as u64 >> 1), b * 2 + (quadrant as u64 & 1));
            }
            rmat.add_edge(a, b, ()).unwrap();
        }
        assert_estimate_is_the_largest_charge::<Shape<u64, f64, ()>>(&rmat.build().unwrap());

        // SSSP's shape on a weighted 24x24 grid.
        let mut grid = Graph::<u64, f64, f64>::builder();
        for v in 0..576 {
            grid.add_vertex(v, f64::INFINITY).unwrap();
        }
        for v in 0..576u64 {
            for w in [v + 1, v + 24].into_iter().filter(|&w| w < 576 && (w != v + 1 || w % 24 != 0))
            {
                grid.add_undirected_edge(v, w, 1.0 + (v % 7) as f64).unwrap();
            }
        }
        assert_estimate_is_the_largest_charge::<Shape<u64, f64, f64>>(&grid.build().unwrap());

        // String ids of varying length.
        let mut names = Graph::<Name, i64, ()>::builder();
        let name = |v: u64| Name(Box::leak(format!("v{}", v * 7919).into_boxed_str()));
        for v in 0..300 {
            names.add_vertex(name(v), v as i64 - 150).unwrap();
        }
        for v in 0..300 {
            names.add_edge(name(v), name((v * 31 + 7) % 300), ()).unwrap();
        }
        assert_estimate_is_the_largest_charge::<Shape<Name, i64, ()>>(&names.build().unwrap());
    }
}
