/**
 * @file
 * Single-job submission for the service tests: the one-element form of
 * DispatchService::submitMany().
 */
#pragma once

#include "serve/dispatch_service.hh"

namespace dysel {
namespace serve {

inline JobHandle
submitOne(DispatchService &svc, const JobSpec &spec)
{
    JobHandle handle;
    svc.submitMany({&spec, 1}, {&handle, 1});
    return handle;
}

} // namespace serve
} // namespace dysel
