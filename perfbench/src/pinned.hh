/**
 * @file
 * Seed-0 stats digests, pinned per workload and scale: FNV-1a 64 of
 * each point's core::dumpStats text, in sweep order.  Seed 0 replays
 * the paper suite's own seeds, so these change only when simulated
 * behaviour changes (the same event that changes tests/golden).
 *
 * To re-pin after a deliberate behaviour change, run the workload at
 * seed 0 and copy the "digest" fields of the result document's
 * "points" array (see CATALOGUE.md).
 */

#ifndef PERFBENCH_PINNED_HH
#define PERFBENCH_PINNED_HH

#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench
{

/** @return the pinned seed-0 digests of @p workload at @p scale, or
 *  nullptr if none are pinned. */
inline const std::vector<std::string> *
pinnedDigests(const std::string &workload, Scale scale)
{
    struct Pin
    {
        const char *workload;
        Scale scale;
        std::vector<std::string> digests;
    };
    static const std::vector<Pin> pins = {
        {"fig6-ladder", Scale::Smoke, {
            "3c2236bf89c00178", "7b40e19e6aff06e6", "508eb240b3f1a03d",
            "c2c3aff3556b65e2", "1398b794f8beb06d", "573b65406b13abf8",
            "841fd95c6c7d398d", "299fe42d18ee6084", "9eb2e5cbfe32ba33",
            "70867acebe51a116", "b3977553cea353ff", "16aad7f49804ccb6",
            "3c29b85eb404ab9c", "bbf8d54b41e22289", "90617b367f3f0276",
            "81da8c6357c5cc78", "91c4fc0561c933f0", "5dc8339e825d3bce",
            "f2b782958bce2168", "ee0bbe71c850dbc8", "7bc4005dc883e42b",
            "544f87da1fe217f1", "f58985b6b7aaa5d5", "5e99555719c31103",
            "65916a174517c89a", "c24f55496289a7a0", "dfebeb2df30f03b0",
            "b10c1c29880d278e",
        }},
        {"write-policy", Scale::Smoke, {
            "f9cf06047bb1985c", "f0924a6840e915e9", "ecbe5bac8fc3b49b",
            "d3b11918972012b6", "198e82671e8d2af9", "ef354cccb7d25fdf",
            "e21a0ce58876b3e4", "80dfd9fba067e3b5", "de3870104ab42a74",
            "5ad456ae139940a8", "36d74035278730c6", "ec9fd862cfa59f4f",
            "d28ad3e75da01b2c", "7e8d39935afb1c3b", "edd9ef07b1d24d0a",
            "539ad04ce141f621", "cb244317a6019915", "7481cbd2c454ab84",
            "424900818de5687e", "7279b314f16fa1c8",
        }},
        {"trace-stream", Scale::Smoke, {
            "4351d917a7e0b863",
        }},
        {"sampled-ladder", Scale::Smoke, {
            "5404a1acedc17985", "e5734a9c15839a16", "f4f77b932974a576",
            "364e27c8b4f75fb6", "2215fa9061ef7314", "87d43a189a286a14",
            "7187333a2122e9c4", "4e60b7c489f8b5c6", "0856cfd9b689ba01",
            "24194e78cea649ce", "c8aa622e9e011d79", "072d3d91dd126009",
            "3c4874035fac3dd1", "c6904066b826798f", "acef64b4198afd78",
            "bac6efcfaac33afa", "fce92181858f0bfb", "f243c23e2a3ffa59",
            "821a63cb4d614423", "7abca18b794846cb", "e5bac62e52c520ed",
            "35fb7a077d39ee94", "f202ae918be624b8", "d867e13f401d23ae",
            "b4e3e7784555eb7e", "1270301275ca0403", "ec70450a1e9ebe90",
            "c567172f279ba699",
        }},
        {"fig6-ladder", Scale::Full, {
            "400957606092613a", "6a36d32be97d13be", "86201ec616325190",
            "79d065d19e79d512", "6b2e2638febc2d2f", "65d5fddf74d59a9f",
            "a5fb8a7b8b3012af", "459748bd77115186", "50778af64fe22869",
            "89ff43380d0dbfcb", "aa56485afda10aa9", "c737979b1936997b",
            "15ce9def3cd6f3c1", "bedcf1ea8731dfe4", "5d6c2414ef52526b",
            "ba6ed7ce75146f9e", "8a43f3632818773b", "69a13141387e1e37",
            "eeb2684283ae657b", "ce5ea7e8bf2f1b5d", "978da81d469220af",
            "c0d258ff8df4e6a3", "78b393fe0d1cd974", "b6e9111bac7223ca",
            "57e30adfe98ca5e5", "4beb15e398c661eb", "9efc0e95046800f1",
            "739b8caf54b8cb2a",
        }},
        {"write-policy", Scale::Full, {
            "a454e0c7c4c86678", "7b65ec5dd7340b03", "c2a9aeab4348df2b",
            "e145b36fa55e94d7", "51fe14f92372f400", "b00388addcb950e4",
            "b60a57005655936a", "ee2ef786579e3504", "3fb82b1586457e43",
            "03f3bef22c5eda80", "fe64ab64d6847dc3", "bfec84836adc7330",
            "ca14f6fb89a23ea0", "467a89ee7aa9dc04", "22bbb7068632767b",
            "bd7dd502a23ea893", "b26a034e6dc29647", "b9f014aa6c407222",
            "ab6782eb657fcdda", "94849a839c936a8a",
        }},
        {"trace-stream", Scale::Full, {
            "069605e25e29384f",
        }},
        {"sampled-ladder", Scale::Full, {
            "155dbbcd83f3897b", "77e3b083b2ac1118", "84694985a1dd8eeb",
            "e4db558d22f92451", "f7cce3bb66b7ff24", "8ea6ce0430111914",
            "932657744d884161", "227fc645aa076d08", "140dbc60ae9e370c",
            "17d662293017e27a", "48222e6f46359e4c", "57b8451d7be77a7b",
            "a7b220ce8483d397", "1d401e1a5427c6a2", "5739462de0b171b2",
            "c9ed929f48df8e2e", "26a2d25d188fad6d", "1310602d8e6cdbe0",
            "667b19ab2b6f2b64", "c4038b783b1655a5", "f15904f1fdca3ffd",
            "41870884305cf828", "63d47451a508adbb", "a3a79223a491e367",
            "f26bf2b28c44a2d9", "917c70befc06d0cc", "448bb79808842731",
            "e1858a0415f42298",
        }},
    };
    for (const Pin &pin : pins) {
        if (workload == pin.workload && scale == pin.scale)
            return &pin.digests;
    }
    return nullptr;
}

} // namespace perfbench

#endif // PERFBENCH_PINNED_HH
