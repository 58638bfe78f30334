"""Seeded adversarial stream scenarios for differential conformance testing.

A :class:`Scenario` is a trained universe plus a *delivered* serving stream:
a time-ordered (or deliberately disordered) list of :class:`StreamEvent`
item uploads and user interactions.  :class:`ScenarioGenerator` composes
scenarios on top of :func:`repro.datasets.synthpop.synthesize_dataset`:
the base dataset is resampled into a realistic synthetic stream, the first
``train_fraction`` of the interactions becomes the training slice, and the
remainder — plus the items uploaded in that span — is perturbed into one
of the catalog's adversarial shapes:

==========================  ====================================================
``baseline``                unperturbed synthpop resample (control)
``bursty_uploads``          uploads clumped into large same-instant bursts
``cold_start_users``        a slice of interactions re-assigned to brand-new
                            user ids that never appeared in training
``cold_start_producers``    brand-new producers upload items mid-stream and
                            users start interacting with them
``abrupt_drift``            at mid-stream every user's browsing jumps to a
                            rotated category block
``gradual_drift``           the same rotation applied with linearly growing
                            probability over the stream
``skewed_producers``        most interactions re-pointed at the single
                            hottest producer's items (popularity hot spot)
``duplicate_out_of_order``  interactions duplicated, uploads redelivered
                            (at-least-once), delivery locally shuffled
                            out of timestamp order
``maintenance_storm``       interactions re-grouped into bursts sized to
                            straddle the Algorithm-2 maintenance cadence
``mutated_retry``           at-least-once redelivery where retries may
                            arrive under a *fresh item id* with a
                            one-entity jitter of the declared set (the
                            near-duplicate surface the dedup stage
                            collapses), shuffled out of order
``cross_producer_repost``   uploads reposted under another existing
                            producer id (fresh item id, identical
                            content), plus some exact redelivery
==========================  ====================================================

Every scenario is deterministic in ``(seed, name)``: generation draws from
``numpy.random.default_rng([seed, scenario_index])``, so regenerating any
single scenario never depends on which others were generated first.

The :class:`~repro.sim.conformance.ConformanceRunner` replays these events
through every serving path and checks the paths against the naive oracle;
see :mod:`repro.sim.conformance` and docs/TESTING.md.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.schema import Dataset, Interaction, SocialItem
from repro.datasets.synthpop import synthesize_dataset
from repro.datasets.ytube import YTubeConfig, generate_ytube

#: Scenario catalog, in the order that fixes each scenario's seed stream.
#: Append new scenarios at the end — inserting in the middle would shift
#: every later scenario's derived seed and change their generated streams.
SCENARIOS: tuple[str, ...] = (
    "baseline",
    "bursty_uploads",
    "cold_start_users",
    "cold_start_producers",
    "abrupt_drift",
    "gradual_drift",
    "skewed_producers",
    "duplicate_out_of_order",
    "maintenance_storm",
    "mutated_retry",
    "cross_producer_repost",
)


@dataclass(frozen=True)
class StreamEvent:
    """One delivered serving-stream event.

    Attributes:
        timestamp: the event's nominal time.  Delivery order is the event
            *list* order — the two disagree on purpose in the
            out-of-order scenario.
        kind: ``"upload"`` (a :class:`SocialItem` payload) or
            ``"interact"`` (an :class:`Interaction` payload).
        payload: the item or interaction delivered.
    """

    timestamp: float
    kind: str
    payload: SocialItem | Interaction

    def __post_init__(self) -> None:
        if self.kind not in ("upload", "interact"):
            raise ValueError(f"kind must be 'upload' or 'interact', got {self.kind!r}")


@dataclass(frozen=True)
class ReplayStep:
    """One step of a scenario replay (see :meth:`Scenario.steps`).

    Attributes:
        kind: ``"observe"`` (``item`` was uploaded), ``"update"``
            (``interaction`` arrived; ``item`` is its payload item, or
            None when unknown) or ``"serve"`` (``window`` is due).
        item / interaction / window: the step's operands.
    """

    kind: str
    item: SocialItem | None = None
    interaction: Interaction | None = None
    window: tuple[SocialItem, ...] = ()

    def write_to(self, recommender) -> None:
        """Apply a write step (observe/update) to a recommender replica."""
        if self.kind == "observe":
            recommender.observe_item(self.item)
        elif self.kind == "update":
            recommender.update(self.interaction, self.item)


@dataclass
class Scenario:
    """A training universe plus an adversarial serving stream.

    Attributes:
        name: catalog name (one of :data:`SCENARIOS`).
        description: one-line summary of the adversarial shape.
        seed: the generator seed the scenario was derived from.
        dataset: the synthesized universe the recommender trains on; novel
            ids injected by the perturbation (cold-start users/producers,
            mid-stream items) are deliberately *not* part of it.
        train_interactions: the training slice (feed to ``fit``).
        events: the delivered serving stream, in delivery order.
        extra_items: mid-stream items that exist only in the serving
            stream (cold-start producer uploads), keyed by item id.
        maintenance_interval: Algorithm-2 cadence the conformance runner
            should apply while replaying this scenario.
    """

    name: str
    description: str
    seed: int
    dataset: Dataset
    train_interactions: list[Interaction]
    events: list[StreamEvent]
    extra_items: dict[int, SocialItem] = field(default_factory=dict)
    maintenance_interval: int = 25
    _item_index: dict[int, SocialItem] | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def item_payload(self, interaction: Interaction) -> SocialItem | None:
        """The :class:`SocialItem` an interaction refers to (novel items
        included) — what ``update(interaction, item)`` expects."""
        if self._item_index is None:
            index = {it.item_id: it for it in self.dataset.items}
            index.update(self.extra_items)
            self._item_index = index
        return self._item_index.get(interaction.item_id)

    def uploads(self) -> list[SocialItem]:
        return [e.payload for e in self.events if e.kind == "upload"]

    def interactions(self) -> list[Interaction]:
        return [e.payload for e in self.events if e.kind == "interact"]

    def steps(self, window_size: int) -> Iterator[ReplayStep]:
        """The replay every driver walks: ``events`` in delivery order as
        observe/update writes, with a ``serve`` step the moment
        ``window_size`` uploads have been observed since the last one and
        a final one for a trailing partial window — so every upload is
        served exactly once, after all the writes delivered before its
        window closed."""
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        window: list[SocialItem] = []
        for event in self.events:
            if event.kind == "interact":
                yield ReplayStep(
                    "update",
                    item=self.item_payload(event.payload),
                    interaction=event.payload,
                )
                continue
            yield ReplayStep("observe", item=event.payload)
            window.append(event.payload)
            if len(window) >= window_size:
                yield ReplayStep("serve", window=tuple(window))
                window = []
        if window:
            yield ReplayStep("serve", window=tuple(window))

    # ------------------------------------------------------------------
    # Summary (reports, tests)
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Event counts plus how far the stream strays from the universe."""
        known_users = set(self.dataset.consumer_ids)
        known_items = {it.item_id for it in self.dataset.items}
        known_producers = set(self.dataset.producer_ids)
        inters = self.interactions()
        ups = self.uploads()
        return {
            "name": self.name,
            "n_events": len(self.events),
            "n_uploads": len(ups),
            "n_interactions": len(inters),
            "n_new_users": len({i.user_id for i in inters} - known_users),
            "n_new_items": len({it.item_id for it in ups} - known_items),
            "n_new_producers": len(
                {it.producer for it in ups} - known_producers
            ),
            "maintenance_interval": self.maintenance_interval,
        }


def _remap(interaction: Interaction, item: SocialItem) -> Interaction:
    """``interaction`` re-pointed at ``item`` (denormalized fields follow)."""
    return Interaction(
        user_id=interaction.user_id,
        item_id=item.item_id,
        category=item.category,
        producer=item.producer,
        timestamp=interaction.timestamp,
    )


class _VisibleItems:
    """Items of one dataset, queryable by category and upload cutoff."""

    def __init__(self, items: Iterable[SocialItem]) -> None:
        self.by_category: dict[int, list[SocialItem]] = {}
        for item in sorted(items, key=lambda it: (it.timestamp, it.item_id)):
            self.by_category.setdefault(item.category, []).append(item)
        self._times = {
            c: [it.timestamp for it in pool] for c, pool in self.by_category.items()
        }

    def latest(self, category: int, t: float, depth: int = 5) -> list[SocialItem]:
        """Up to ``depth`` most recent items of ``category`` uploaded <= t
        (falls back to the category's earliest items before any upload)."""
        pool = self.by_category.get(category)
        if not pool:
            return []
        cut = bisect_right(self._times[category], t)
        return pool[max(0, cut - depth) : cut] if cut else pool[:1]


class ScenarioGenerator:
    """Composes the scenario catalog from one seeded synthpop resample.

    Args:
        base: source dataset the synthpop resample clones; defaults to the
            small YTube generator at this seed.
        seed: master seed; each scenario derives its own generator from
            ``(seed, scenario_index)``.
        max_events: serving-stream length cap, enforced both before and
            after perturbation — scenarios that inject or duplicate
            events still deliver at most this many.
        train_fraction: share of the resampled interactions that becomes
            the training slice.
    """

    def __init__(
        self,
        base: Dataset | None = None,
        seed: int = 0,
        max_events: int = 600,
        train_fraction: float = 0.5,
    ) -> None:
        if not (0.0 < train_fraction < 1.0):
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        if max_events < 10:
            raise ValueError(f"max_events must be >= 10, got {max_events}")
        self.base = base if base is not None else generate_ytube(YTubeConfig.small(seed))
        self.seed = int(seed)
        self.max_events = int(max_events)
        self.train_fraction = float(train_fraction)

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    @staticmethod
    def names() -> tuple[str, ...]:
        return SCENARIOS

    def generate_all(self, names: Sequence[str] | None = None) -> list[Scenario]:
        return [self.generate(name) for name in (names or SCENARIOS)]

    def generate(self, name: str) -> Scenario:
        """Build one scenario, deterministic in ``(self.seed, name)``."""
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
            )
        rng = np.random.default_rng([self.seed, SCENARIOS.index(name)])
        syn = synthesize_dataset(self.base, name=f"Sim{self.base.name}", seed=rng)
        ordered = sorted(
            syn.interactions, key=lambda i: (i.timestamp, i.item_id, i.user_id)
        )
        cut = max(2, int(len(ordered) * self.train_fraction))
        train = ordered[:cut]
        cutoff_time = train[-1].timestamp
        serve_inters = ordered[cut:]
        serve_items = [it for it in syn.items if it.timestamp > cutoff_time]
        events = self._merge(serve_items, serve_inters)[: self.max_events]

        perturb = getattr(self, f"_perturb_{name}")
        events, extra_items, description, interval = perturb(rng, events, syn)
        # Cap again after perturbation: scenarios that add events
        # (duplicates, injected uploads) must still honour the configured
        # stream length, so replay cost tracks max_events for every shape.
        events = events[: self.max_events]
        return Scenario(
            name=name,
            description=description,
            seed=self.seed,
            dataset=syn,
            train_interactions=train,
            events=events,
            extra_items=extra_items,
            maintenance_interval=interval,
        )

    @staticmethod
    def _merge(
        items: Sequence[SocialItem], interactions: Sequence[Interaction]
    ) -> list[StreamEvent]:
        """Time-ordered merge; an upload sorts before interactions at the
        same instant (nothing can be browsed before it exists)."""
        events = [StreamEvent(it.timestamp, "upload", it) for it in items]
        events += [StreamEvent(i.timestamp, "interact", i) for i in interactions]
        events.sort(key=lambda e: (e.timestamp, 0 if e.kind == "upload" else 1))
        return events

    # ------------------------------------------------------------------
    # Perturbations — each returns (events, extra_items, description,
    # maintenance_interval)
    # ------------------------------------------------------------------
    def _perturb_baseline(self, rng, events, syn):
        return events, {}, "unperturbed synthpop resample (control)", 25

    def _perturb_bursty_uploads(self, rng, events, syn):
        """Clump uploads into bursts delivered back-to-back at one instant."""
        burst_size = 12
        uploads = [e for e in events if e.kind == "upload"]
        bursts: dict[int, list[StreamEvent]] = {}  # anchor position -> burst
        anchor_of: dict[int, int] = {}  # id(event) -> anchor position
        positions = [i for i, e in enumerate(events) if e.kind == "upload"]
        for start in range(0, len(uploads), burst_size):
            group = uploads[start : start + burst_size]
            anchor = positions[start]
            bursts[anchor] = group
            for member in group:
                anchor_of[id(member)] = anchor
        out: list[StreamEvent] = []
        for position, event in enumerate(events):
            if event.kind != "upload":
                out.append(event)
                continue
            if anchor_of[id(event)] != position:
                continue  # delivered earlier, with its burst
            anchor_time = event.timestamp
            out.extend(
                StreamEvent(anchor_time, "upload", member.payload)
                for member in bursts[position]
            )
        return out, {}, f"uploads delivered in bursts of {burst_size}", 25

    def _perturb_cold_start_users(self, rng, events, syn):
        """Re-assign a third of the interactions to brand-new user ids."""
        known = set(syn.consumer_ids) | set(syn.producer_ids)
        first_new = max(known) + 1
        n_new = 12
        new_ids = list(range(first_new, first_new + n_new))
        out = []
        for event in events:
            if event.kind == "interact" and rng.random() < 0.33:
                inter = event.payload
                reassigned = Interaction(
                    user_id=int(rng.choice(new_ids)),
                    item_id=inter.item_id,
                    category=inter.category,
                    producer=inter.producer,
                    timestamp=inter.timestamp,
                )
                event = StreamEvent(event.timestamp, "interact", reassigned)
            out.append(event)
        return (
            out,
            {},
            f"{n_new} unseen users absorb a third of the interactions",
            25,
        )

    def _perturb_cold_start_producers(self, rng, events, syn):
        """Inject brand-new producers uploading mid-stream, then route a
        share of the later interactions onto their items."""
        n_producers, items_each = 3, 5
        first_pid = max(set(syn.producer_ids) | set(syn.consumer_ids)) + 1
        first_item = max(it.item_id for it in syn.items) + 1
        templates = [e.payload for e in events if e.kind == "upload"]
        if not templates:
            templates = syn.items[-items_each:]
        span = [e.timestamp for e in events] or [0.0, 1.0]
        lo, hi = min(span), max(span)
        extra: dict[int, SocialItem] = {}
        novel_events: list[StreamEvent] = []
        next_item = first_item
        for p in range(n_producers):
            pid = first_pid + p
            for j in range(items_each):
                template = templates[int(rng.integers(len(templates)))]
                t = float(lo + (hi - lo) * (0.1 + 0.8 * rng.random()))
                item = SocialItem(
                    item_id=next_item,
                    category=template.category,
                    producer=pid,
                    entities=template.entities,
                    text=template.text,
                    timestamp=t,
                )
                extra[next_item] = item
                novel_events.append(StreamEvent(t, "upload", item))
                next_item += 1
        merged = sorted(
            list(events) + novel_events,
            key=lambda e: (e.timestamp, 0 if e.kind == "upload" else 1),
        )
        novel = _VisibleItems(extra.values())
        out = []
        for event in merged:
            if event.kind == "interact" and rng.random() < 0.25:
                inter = event.payload
                pool = [
                    it
                    for items in novel.by_category.values()
                    for it in items
                    if it.timestamp <= inter.timestamp
                ]
                if pool:
                    target = pool[int(rng.integers(len(pool)))]
                    event = StreamEvent(
                        event.timestamp, "interact", _remap(inter, target)
                    )
            out.append(event)
        return (
            out,
            extra,
            f"{n_producers} unseen producers upload {items_each} items each mid-stream",
            25,
        )

    def _drift(self, rng, events, syn, probability_at):
        """Shared drift machinery: remap an interaction's target into the
        rotated category block with a position-dependent probability."""
        shift = max(1, syn.n_categories // 2)
        visible = _VisibleItems(syn.items)
        out = []
        n = max(len(events), 1)
        for position, event in enumerate(events):
            if event.kind == "interact" and rng.random() < probability_at(position / n):
                inter = event.payload
                target_category = (inter.category + shift) % syn.n_categories
                pool = visible.latest(target_category, inter.timestamp)
                if pool:
                    target = pool[int(rng.integers(len(pool)))]
                    event = StreamEvent(
                        event.timestamp, "interact", _remap(inter, target)
                    )
            out.append(event)
        return out

    def _perturb_abrupt_drift(self, rng, events, syn):
        out = self._drift(rng, events, syn, lambda x: 1.0 if x >= 0.5 else 0.0)
        return (
            out,
            {},
            "every user's browsing jumps to a rotated category block mid-stream",
            25,
        )

    def _perturb_gradual_drift(self, rng, events, syn):
        out = self._drift(rng, events, syn, lambda x: x)
        return (
            out,
            {},
            "browsing rotates categories with linearly growing probability",
            25,
        )

    def _perturb_skewed_producers(self, rng, events, syn):
        """Concentrate interactions on the hottest producer's items."""
        counts = Counter(it.producer for it in syn.items)
        hot = max(sorted(counts), key=lambda pid: counts[pid])
        visible = _VisibleItems(it for it in syn.items if it.producer == hot)
        out = []
        for event in events:
            if event.kind == "interact" and rng.random() < 0.7:
                inter = event.payload
                pool = [
                    it
                    for category in visible.by_category
                    for it in visible.latest(category, inter.timestamp, depth=3)
                ]
                if pool:
                    target = pool[int(rng.integers(len(pool)))]
                    event = StreamEvent(
                        event.timestamp, "interact", _remap(inter, target)
                    )
            out.append(event)
        return out, {}, f"70% of interactions re-pointed at producer {hot}", 25

    def _perturb_duplicate_out_of_order(self, rng, events, syn):
        """Duplicate a quarter of the interactions, redeliver uploads
        geometrically (at-least-once delivery under retry pressure: each
        attempt independently retries with probability 0.5), then locally
        shuffle so events arrive out of timestamp order.

        Redelivered uploads are full stream events: every serving path
        observes *and serves* them again, exactly as an at-least-once
        transport would hand them over — the duplicate-heavy serving
        surface the exact ``*-dedup`` plans are benchmarked on
        (``benchmarks/bench_dedup.py``).
        """
        duplicated: list[StreamEvent] = []
        for event in events:
            duplicated.append(event)
            if event.kind == "interact" and rng.random() < 0.25:
                duplicated.append(
                    StreamEvent(event.timestamp, "interact", event.payload)
                )
            elif event.kind == "upload":
                while rng.random() < 0.50:  # geometric retry chain
                    duplicated.append(
                        StreamEvent(event.timestamp, "upload", event.payload)
                    )
        block = 8
        out: list[StreamEvent] = []
        for start in range(0, len(duplicated), block):
            chunk = duplicated[start : start + block]
            order = rng.permutation(len(chunk))
            out.extend(chunk[i] for i in order)
        return (
            out,
            {},
            "25% duplicated interactions + geometric upload redelivery "
            "(p=0.5), delivery shuffled in blocks of 8",
            25,
        )

    def _perturb_maintenance_storm(self, rng, events, syn):
        """Regroup interactions into bursts sized to straddle the
        Algorithm-2 cadence, so flushes fire both inside update bursts and
        lazily at query time."""
        interval = 5
        sizes = (interval - 1, interval, interval + 1, 2 * interval - 1, 1, 2 * interval)
        uploads = [e for e in events if e.kind == "upload"]
        inters = [e for e in events if e.kind == "interact"]
        out: list[StreamEvent] = []
        burst_index = 0
        u = i = 0
        while u < len(uploads) or i < len(inters):
            if u < len(uploads):
                out.append(uploads[u])
                u += 1
            if i < len(inters):
                size = sizes[burst_index % len(sizes)]
                out.extend(inters[i : i + size])
                i += size
                burst_index += 1
        return (
            out,
            {},
            f"interaction bursts straddling a maintenance interval of {interval}",
            interval,
        )

    @staticmethod
    def _jitter_entities(rng, entities, universe) -> tuple[int, ...]:
        """One add/drop/replace mutation of a declared entity tuple,
        drawing additions from the dataset's entity universe.  Add/drop
        keeps the Jaccard against the original at n/(n+1) or (n-1)/n —
        above the default collapse threshold for typical set sizes —
        while replace lands near 0.5, probing both sides of τ."""
        current = list(dict.fromkeys(int(e) for e in entities))
        outside = [e for e in universe if e not in set(current)]
        ops = []
        if len(current) >= 2:
            ops.append("drop")
        if outside:
            ops.append("add")
        if current and outside:
            ops.append("replace")
        if not ops:
            return tuple(current)
        op = ops[int(rng.integers(len(ops)))]
        if op == "drop":
            del current[int(rng.integers(len(current)))]
        elif op == "add":
            current.append(int(outside[int(rng.integers(len(outside)))]))
        else:
            current[int(rng.integers(len(current)))] = int(
                outside[int(rng.integers(len(outside)))]
            )
        return tuple(current)

    def _perturb_mutated_retry(self, rng, events, syn):
        """At-least-once redelivery under *mutated* retries: each upload's
        geometric retry chain (p=0.5) redelivers either the exact payload
        or a near-duplicate under a **fresh item id** whose entity set is
        jittered by one add/drop/replace, then delivery is locally
        shuffled out of timestamp order.

        This is the surface the dedup stage exists for: the exact result
        cache collapses only the same-id redeliveries, exact dedup also
        collapses fresh ids whose resolved scorer inputs coincide, and
        approximate dedup collapses the jittered near-duplicates too
        (``benchmarks/bench_dedup.py`` measures the recall that trade
        costs).  Mutated retries get fresh ids on purpose — reusing the
        id with different entities would collide with the scorer's
        frozen-per-id query cache and make the stream ill-defined.
        """
        universe = sorted({int(e) for it in syn.items for e in it.entities})
        next_item = max(it.item_id for it in syn.items) + 1
        extra: dict[int, SocialItem] = {}
        duplicated: list[StreamEvent] = []
        for event in events:
            duplicated.append(event)
            if event.kind != "upload":
                continue
            item = event.payload
            while rng.random() < 0.50:  # geometric retry chain
                if rng.random() < 0.5:  # exact redelivery
                    duplicated.append(StreamEvent(event.timestamp, "upload", item))
                    continue
                mutated = SocialItem(
                    item_id=next_item,
                    category=item.category,
                    producer=item.producer,
                    entities=self._jitter_entities(rng, item.entities, universe),
                    text=item.text,
                    timestamp=item.timestamp,
                )
                extra[next_item] = mutated
                next_item += 1
                duplicated.append(StreamEvent(event.timestamp, "upload", mutated))
        block = 8
        out: list[StreamEvent] = []
        for start in range(0, len(duplicated), block):
            chunk = duplicated[start : start + block]
            order = rng.permutation(len(chunk))
            out.extend(chunk[i] for i in order)
        return (
            out,
            extra,
            "geometric upload retries (p=0.5) where half the redeliveries "
            "carry a fresh id and a one-entity jitter, shuffled in blocks of 8",
            25,
        )

    def _perturb_cross_producer_repost(self, rng, events, syn):
        """Repost a share of the uploads under another existing producer
        (fresh item id, identical category/entities/text), with a little
        exact redelivery on top.

        A repost is the same *content* from a different author — the
        exact dedup key (producer included) correctly refuses to collapse
        it, while approximate dedup (producer-free by design) does; the
        two modes' treatment of this stream is what separates their
        collapse rates in ``bench_dedup``.
        """
        producers = sorted(set(syn.producer_ids))
        next_item = max(it.item_id for it in syn.items) + 1
        extra: dict[int, SocialItem] = {}
        out: list[StreamEvent] = []
        for event in events:
            out.append(event)
            if event.kind != "upload":
                continue
            item = event.payload
            if rng.random() < 0.15:  # at-least-once flavor
                out.append(StreamEvent(event.timestamp, "upload", item))
            if len(producers) > 1 and rng.random() < 0.35:
                pid = item.producer
                while pid == item.producer:
                    pid = int(producers[int(rng.integers(len(producers)))])
                repost = SocialItem(
                    item_id=next_item,
                    category=item.category,
                    producer=pid,
                    entities=item.entities,
                    text=item.text,
                    timestamp=item.timestamp,
                )
                extra[next_item] = repost
                next_item += 1
                out.append(StreamEvent(event.timestamp, "upload", repost))
        return (
            out,
            extra,
            "35% of uploads reposted under another existing producer "
            "(fresh ids, identical content) + 15% exact redelivery",
            25,
        )
