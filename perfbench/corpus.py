"""Seeded, scaled record corpus in the shape of ``fixtures/records``.

Each envelope starts from ``build_envelope`` of the fixture generator
(imported read-only from ``scripts/make_fixtures.py``) and is re-keyed
so that the corpus can grow past the 50 fixture records:

* record ``i`` describes compound ``i // 2 + 1`` (two analyses per
  compound), so ids are unique at every size;
* records are submitted 5 per day from 2014-05-01, about 150 per
  month, the reference deployment's rate;
* the seed picks the creator pool (about N/20 people, each with one of
  three affiliations) and which compounds carry a substance block.

The same (seed, N) always gives byte-identical files.
"""

from __future__ import annotations

import importlib.util
import json
import random
from datetime import date, timedelta
from pathlib import Path

FIRST_DAY = date(2014, 5, 1)
PER_DAY = 5
#: Share of compounds with a substance block (10 of 25 in the fixtures).
SUBSTANCE_SHARE = 0.4


def _fixture_module(root: Path):
    path = root / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("kgforge_make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Corpus:
    """Envelope factory for one seed; ``envelope(i, day)`` is pure."""

    def __init__(self, root: Path, seed: int, n: int):
        fixtures = _fixture_module(root)
        self._build_envelope = fixtures.build_envelope
        self._inchikey = fixtures.inchikey
        rng = random.Random(f"kgforge-corpus:{seed}:{n}")
        creators = max(3, n // 20)
        self._creator_of = [rng.randrange(creators) for _ in range(2 * n + 2)]
        compounds = n // 2 + 2
        self._substance = [rng.random() < SUBSTANCE_SHARE for _ in range(compounds)]
        self._repo = fixtures.REPO

    def has_substance(self, i: int) -> bool:
        return self._substance[i // 2 % len(self._substance)]

    def envelope(self, i: int, day: date) -> dict:
        """Record ``i`` submitted on ``day``."""
        # Fixture records 0 and 1 are the two analyses of compound 0,
        # which carries a substance block: a template with every field.
        doc = self._build_envelope(i % 2)
        meta = doc["metadata"]
        compound = i // 2 + 1
        key = self._inchikey(compound)
        old_key = self._inchikey(0)
        analysis = doc["id"].rsplit("/", 1)[1]
        creator = self._creator_of[i % len(self._creator_of)]
        org = creator % 3
        orcid = f"0000-0003-{creator // 10000:04d}-{creator % 10000:04d}"

        doc["id"] = f"10.14272/{key}/{analysis}"
        doc["submitted"] = day.isoformat()
        meta["creator"] = {
            "@id": f"https://orcid.org/{orcid}",
            "@type": "Person",
            "name": f"Person{creator} Example",
            "identifier": orcid,
            "affiliation": {
                "@id": f"https://ror.org/0example{org}",
                "@type": "Organization",
                "name": f"Example Institute {org}",
            },
        }
        meta["description"] = f"{analysis} spectrum of compound {compound:05d}"
        meta["identifier"] = f"CRD-{i + 1}"
        meta["url"] = meta["url"].replace(old_key, key)
        meta["datePublished"] = day.isoformat()
        study = meta["isPartOf"]
        study["@id"] = f"{self._repo}/studies/CRD-{i + 1}"
        about = study.pop("about")
        if self.has_substance(i):
            part = about["hasBioChemEntityPart"]
            about["@id"] = about["@id"].replace(old_key, key)
            part["@id"] = part["@id"].replace(old_key, key)
            part["inChIKey"] = key
            part["molecularWeight"] = float(f"{100 + compound % 900}.19")
            part["image"] = part["image"].replace(old_key, key)
            study["about"] = about
        return doc

    def write(self, directory: Path, first: int, count: int, start: date) -> list[str]:
        """Write records ``first .. first+count-1``, 5 per day from
        ``start``; returns the months (``YYYY-MM``) they fall in."""
        directory.mkdir(parents=True, exist_ok=True)
        months = []
        for k in range(count):
            i = first + k
            day = start + timedelta(days=k // PER_DAY)
            doc = self.envelope(i, day)
            (directory / f"rec_{i:06d}.json").write_text(
                json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
            )
            month = day.strftime("%Y-%m")
            if not months or months[-1] != month:
                months.append(month)
        return months


def next_month(day: date) -> date:
    """First day of the month after ``day``."""
    return (day.replace(day=28) + timedelta(days=4)).replace(day=1)


def last_day(count: int, start: date = FIRST_DAY) -> date:
    return start + timedelta(days=(count - 1) // PER_DAY)
