#pragma once
// Pinned simulated digests, one per world, recorded with the default seed
// (regenerate with `perf_ledger --print-digests`).  A run whose digest
// differs in any digit counts as failed.

namespace perfledger {

struct ExpectedDigest {
  const char* world;
  const char* digest;
};

inline constexpr ExpectedDigest kExpectedDigests[] = {
    {"halo-131072",
     "makespan=0.0016474091978609599 events=4194305 sends=1048576 recvs=1048576 colls=131072 p2p_wait=160.09671220355676 coll_wait=0.20971519999962274"},
    {"coll-131072",
     "makespan=0.0020150839999999999 events=3276824 sends=0 recvs=0 colls=3145728 p2p_wait=0 coll_wait=264.12109004773851"},
    {"halo-32768-profiled",
     "makespan=0.00094484941176470609 events=1048577 sends=262144 recvs=262144 colls=32768 p2p_wait=25.558402402791739 coll_wait=0.051118079999979395"},
    {"halo-32768",
     "makespan=0.00094484941176470609 events=1048577 sends=262144 recvs=262144 colls=32768 p2p_wait=25.558402402791739 coll_wait=0.051118079999979395"},
    {"halo-512-w16-TXYZ",
     "makespan=4.0377532976827097e-05 events=23553 sends=8192 recvs=8192 colls=512 p2p_wait=0.017529222959001778 coll_wait=0.00073728000000000563"},
    {"halo-512-w512-TXYZ",
     "makespan=0.00072519197860962479 events=31745 sends=8192 recvs=8192 colls=512 p2p_wait=0.32665914986096184 coll_wait=0.00073728000000000563"},
    {"halo-512-w2048-TXYZ",
     "makespan=0.0028424078074866287 events=31745 sends=8192 recvs=8192 colls=512 p2p_wait=1.2791796490267371 coll_wait=0.00073728000000000563"},
    {"halo-1024-w16-TXYZ",
     "makespan=4.1116360071301257e-05 events=47105 sends=16384 recvs=16384 colls=1024 p2p_wait=0.036605164606060607 coll_wait=0.0014950400000000028"},
    {"halo-1024-w512-TXYZ",
     "makespan=0.00070431262032085492 events=63489 sends=16384 recvs=16384 colls=1024 p2p_wait=0.62661934243137152 coll_wait=0.0014950400000000028"},
    {"halo-1024-w2048-TXYZ",
     "makespan=0.0026922727272727259 events=63489 sends=16384 recvs=16384 colls=1024 p2p_wait=2.4518563407058842 coll_wait=0.0014950400000000028"},
    {"halo-2048-w16-TXYZ",
     "makespan=4.113636007130126e-05 events=94209 sends=32768 recvs=32768 colls=2048 p2p_wait=0.072939149347593379 coll_wait=0.0030310399999999784"},
    {"halo-2048-w512-TXYZ",
     "makespan=0.00070433262032085491 events=126977 sends=32768 recvs=32768 colls=2048 p2p_wait=1.2356240990802172 coll_wait=0.0030310399999999784"},
    {"halo-2048-w2048-TXYZ",
     "makespan=0.0026922927272727262 events=126977 sends=32768 recvs=32768 colls=2048 p2p_wait=4.8437075960356486 coll_wait=0.0030310399999999784"},
    {"halo-512-w16-XYZT",
     "makespan=5.8733368983957234e-05 events=23553 sends=8192 recvs=8192 colls=512 p2p_wait=0.025231859572192518 coll_wait=0.00073728000000000563"},
    {"halo-512-w512-XYZT",
     "makespan=0.0012401491978609614 events=31745 sends=8192 recvs=8192 colls=512 p2p_wait=0.57063268278074653 coll_wait=0.00073728000000000563"},
    {"halo-512-w2048-XYZT",
     "makespan=0.00486872331550802 events=31745 sends=8192 recvs=8192 colls=512 p2p_wait=2.2422002070588243 coll_wait=0.00073728000000000563"},
    {"halo-1024-w16-XYZT",
     "makespan=3.0127058823529426e-05 events=47105 sends=16384 recvs=16384 colls=1024 p2p_wait=0.028066361497326327 coll_wait=0.0014950400000000028"},
    {"halo-1024-w512-XYZT",
     "makespan=0.00022564572192513386 events=63489 sends=16384 recvs=16384 colls=1024 p2p_wait=0.18720438074866108 coll_wait=0.0014950400000000028"},
    {"halo-1024-w2048-XYZT",
     "makespan=0.00082670454545454562 events=63489 sends=16384 recvs=16384 colls=1024 p2p_wait=0.67694427721925032 coll_wait=0.0014950400000000028"},
    {"halo-2048-w16-XYZT",
     "makespan=3.0147058823529426e-05 events=94209 sends=32768 recvs=32768 colls=2048 p2p_wait=0.056030322994652611 coll_wait=0.0030310399999999784"},
    {"halo-2048-w512-XYZT",
     "makespan=0.00022566572192513388 events=126977 sends=32768 recvs=32768 colls=2048 p2p_wait=0.37410156149732654 coll_wait=0.0030310399999999784"},
    {"halo-2048-w2048-XYZT",
     "makespan=0.00082672454545454561 events=126977 sends=32768 recvs=32768 colls=2048 p2p_wait=1.353811754438502 coll_wait=0.0030310399999999784"},
    {"hpl-4x8-n3840",
     "makespan=0.66661813225540056 events=22858 sends=4960 recvs=4960 colls=224 p2p_wait=7.8004586525689872 coll_wait=0.0016779902317327212"},
    {"hpl-8x8-n3840",
     "makespan=0.37878332641291101 events=86186 sends=20160 recvs=20160 colls=448 p2p_wait=10.658823349396453 coll_wait=0.0033005116577453845"},
    {"storm-256-b512",
     "makespan=0.0034194685383244212 events=2818 sends=512 recvs=512 colls=512 p2p_wait=0.005991742117647106 coll_wait=0.86703918063458396"},
    {"storm-512-b128",
     "makespan=0.0021003155733808677 events=5634 sends=1024 recvs=1024 colls=1024 p2p_wait=0.011983484235294193 coll_wait=1.0586720432180678"},
};

}  // namespace perfledger
