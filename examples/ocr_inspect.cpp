// OCR inspector: renders a synthetic thumbnail for each corruption mode,
// runs the three OCR engines and the 2-of-3 voting combiner on it, and
// writes the raster to a PGM file you can open in any image viewer.
//
//   ./ocr_inspect [latency_ms] [output_dir]

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "ocr/extractor.hpp"
#include "synth/thumbnail.hpp"
#include "util/table.hpp"

using namespace tero;

int main(int argc, char** argv) {
  const int latency = argc > 1 ? std::atoi(argv[1]) : 87;
  const std::string out_dir = argc > 2 ? argv[2] : "/tmp";

  const auto& spec = ocr::ui_spec_for("League of Legends");
  synth::ThumbnailConfig thumbnails;
  thumbnails.full_frame = true;  // the PGMs show the whole finished frame
  const synth::ThumbnailRenderer renderer(thumbnails);
  const ocr::LatencyExtractor extractor;
  util::Rng rng(7);

  std::cout << "game      : " << spec.game << "\n";
  std::cout << "UI region : (" << spec.latency_region.x << ","
            << spec.latency_region.y << ") " << spec.latency_region.w << "x"
            << spec.latency_region.h << "\n";
  std::cout << "truth     : " << latency << " ms\n\n";

  const std::pair<synth::Corruption, const char*> modes[] = {
      {synth::Corruption::kNone, "clean"},
      {synth::Corruption::kOcclusion, "occlusion"},
      {synth::Corruption::kLowContrast, "low_contrast"},
      {synth::Corruption::kClock, "clock_overlay"},
      {synth::Corruption::kHeavyNoise, "heavy_noise"},
      {synth::Corruption::kCompression, "compression"},
  };

  util::Table table({"corruption", "templat", "zonenet", "profiler",
                     "Tero primary", "alt", "file"});
  for (const auto& [corruption, name] : modes) {
    const auto rendered = renderer.render_with(spec, latency, corruption, rng);
    std::vector<std::string> row = {name};
    for (std::size_t e = 0; e < extractor.engines().size(); ++e) {
      const auto value =
          extractor.extract_with_engine(rendered.image, spec, e);
      row.push_back(value ? std::to_string(*value) : "-");
    }
    const auto reading = extractor.extract(rendered.image, spec);
    row.push_back(reading.primary ? std::to_string(*reading.primary) : "-");
    row.push_back(reading.alternative ? std::to_string(*reading.alternative)
                                      : "-");
    const std::string path = out_dir + "/thumb_" + name + ".pgm";
    std::ofstream file(path, std::ios::binary);
    const std::string pgm = rendered.image.to_pgm();
    file.write(pgm.data(), static_cast<std::streamsize>(pgm.size()));
    row.push_back(path);
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\nocclusion hides the leading digit (digit drop), low "
               "contrast starves\nbinarization (miss), the clock overlay is "
               "the Fig. 6d trap, compression\nmerges glyphs until the "
               "engines disagree and the vote rejects the frame.\n";
  return 0;
}
