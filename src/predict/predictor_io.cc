#include "src/predict/predictor_io.h"

#include <istream>
#include <iterator>
#include <ostream>

#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace {

constexpr uint32_t kPredictorSectionVersion = 2;

}  // namespace

void SavePredictor(std::ostream& os, const ThreeSigmaPredictor& predictor) {
  SnapshotWriter writer;
  writer.BeginSection("predict", kPredictorSectionVersion);
  predictor.SaveState(writer);
  writer.EndSection();
  const std::string buffer = writer.Finish();
  os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
}

bool LoadPredictor(std::istream& is, ThreeSigmaPredictor* predictor) {
  std::string buffer((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  SnapshotReader reader(std::move(buffer));
  uint32_t version = 0;
  if (!reader.BeginSection("predict", &version) || version != kPredictorSectionVersion) {
    return false;
  }
  predictor->RestoreState(reader);
  reader.EndSection();
  return reader.ok();
}

}  // namespace threesigma
