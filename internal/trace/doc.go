// Package trace holds the coherence message streams observed at the DSM
// directories and replays them into predictors.
//
// The paper's predictor evaluation (§7.1–7.3) is a function of the
// per-block message streams alone. A machine's directories append every
// incoming message to one Trace (protocol.System.Record), in processing
// order, and passive observers score it by Replay: a machine replays its
// stream as it runs, and a trace written to a file (Write) is read back
// (Read) and replayed offline through the very same path, so offline
// evaluation reproduces online measurements by construction and lets
// external traces be evaluated with the same machinery. Replay numbers
// the trace's blocks itself, one lookup per event shared by every
// predictor replayed, and keeps the numbering with the trace so that a
// stream can be replayed in pieces. Read refuses a trace no machine
// could have recorded.
package trace
