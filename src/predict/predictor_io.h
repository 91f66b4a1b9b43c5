// 3σPredict state persistence.
//
// A production predictor accumulates months of history (the paper pre-trains
// on everything before each experiment window); losing it on restart would
// reset every estimate to cold-start. SavePredictor/LoadPredictor serialize
// the full per-feature state — streaming histogram bins, the four experts'
// accumulators, and NMAE scores — exactly.
//
// The format is a snapshot container (snapshot/snapshot_io.h, magic
// "3SGSNAP1") holding one "predict" section (version 2) whose payload is
// ThreeSigmaPredictor::SaveState — the same bytes a full run checkpoint
// embeds, so there is exactly one serialization framework. Version 1, a
// line-oriented text format, is no longer read: LoadPredictor rejects it
// like any other non-container input.

#ifndef SRC_PREDICT_PREDICTOR_IO_H_
#define SRC_PREDICT_PREDICTOR_IO_H_

#include <iosfwd>

#include "src/predict/predictor.h"

namespace threesigma {

void SavePredictor(std::ostream& os, const ThreeSigmaPredictor& predictor);

// Replaces `predictor`'s state with the stream's contents. Returns false on
// malformed input (predictor state is unspecified then).
bool LoadPredictor(std::istream& is, ThreeSigmaPredictor* predictor);

}  // namespace threesigma

#endif  // SRC_PREDICT_PREDICTOR_IO_H_
