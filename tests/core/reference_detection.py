"""PAPER.md §1 steps 3–5 aggregated the slow way — a test oracle.

Step 3's per-day references land in a set of use days per ``(domain,
provider)`` and plain per-day counters; step 4's series and step 5's
maximal intervals are read off ``range(horizon)``, so order cannot matter.
"""

from collections import Counter, defaultdict

from repro.core import detection


class ReferenceDetection:
    def __init__(self, horizon):
        self.horizon = horizon
        self.domains = set()
        self.use_days = defaultdict(set)  # (domain, provider) -> {day}
        self.total = defaultdict(Counter)  # provider -> day -> SLDs
        self.by_ref = defaultdict(lambda: defaultdict(Counter))  # … per ref
        self.any_use = defaultdict(Counter)  # tld -> day -> SLDs
        self.combos = defaultdict(Counter)  # provider -> label -> days

    def observe(self, domain, tld, day, matches):
        self.domains.add(domain)
        if day >= self.horizon or not matches:
            return
        self.any_use[tld][day] += 1
        for provider, refs in matches.items():
            self.use_days[domain, provider].add(day)
            self.total[provider][day] += 1
            self.combos[provider][detection.combo_label(refs)] += 1
            for ref in refs:
                self.by_ref[provider][ref][day] += 1

    def detection(self):
        days = range(self.horizon)
        intervals = {}
        for key, used in self.use_days.items():
            runs = intervals[key] = []
            for day in days:
                if day in used and day - 1 in used:
                    runs[-1] = detection.UseInterval(runs[-1].start, day + 1)
                elif day in used:
                    runs.append(detection.UseInterval(day, day + 1))

        def series(counts):
            return [counts[day] for day in days]

        return detection.DetectionResult(
            horizon=self.horizon,
            providers={
                name: detection.ProviderSeries(
                    name,
                    series(counts),
                    {r: series(c) for r, c in self.by_ref[name].items()},
                )
                for name, counts in self.total.items()
            },
            any_use_by_tld={t: series(c) for t, c in self.any_use.items()},
            any_use_combined=series(sum(self.any_use.values(), Counter())),
            intervals=intervals,
            combo_days={p: dict(c) for p, c in self.combos.items()},
            domains_seen=len(self.domains),
        )
