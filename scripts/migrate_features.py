"""Recompute cached features from stored counters, invalidate CV caches."""
import time

from repro.experiments.pipeline import ExperimentPipeline, FEATURE_EXTRACTORS
from repro.experiments.scale import ReproScale

t0 = time.time()
pipe = ExperimentPipeline(ReproScale.default())
migrated = 0
for key in pipe.phase_keys:
    cache_key = pipe._phase_cache_key(*key)
    try:
        data = pipe.store.get(cache_key)
    except KeyError:
        continue  # not cached yet; nothing to migrate
    data.features = {name: extractor.extract(data.counters)
                     for name, extractor in FEATURE_EXTRACTORS.items()}
    pipe.store.put(cache_key, data)
    migrated += 1
for fs in ("advanced", "basic"):
    pipe.store.delete(pipe._prediction_key(fs))
pipe.store.delete(pipe._full_predictor_key("advanced"))
print(f"migrated {migrated} phase entries in {time.time()-t0:.0f}s")
