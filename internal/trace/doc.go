// Package trace captures the coherence message streams observed at the
// DSM directories and replays them into predictors offline.
//
// The paper's predictor evaluation (§7.1–7.3) is a function of the
// per-block message streams alone; capturing them once and replaying them
// makes predictor studies cheap (no re-simulation) and lets external
// traces be evaluated with the same machinery. A Recorder is a
// core.Predictor, the passive-observer contract, and attaches to a
// running machine exactly like a scoring observer, so the captured
// stream is — by construction — identical to what an online predictor
// would have observed. The recorder sees every directory, so it ignores
// the directories' block indices and records addresses. Replay feeds a
// trace to any core.Predictor, numbering its blocks itself: one lookup
// per event, shared by every predictor replayed.
package trace
